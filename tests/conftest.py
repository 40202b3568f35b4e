"""Shared test settings.

Property tests run under one ``hypothesis`` profile: derandomized, so every
run draws the same examples; with no example database; and without a
deadline, so a slow host does not turn into a failure.
"""

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fmlsim", derandomize=True, database=None, deadline=None)
settings.load_profile("fmlsim")


def pytest_configure(config):
    # even without a database, hypothesis caches the literals it finds in
    # local modules under its home directory (``.hypothesis/`` by default);
    # keep that cache inside pytest's own cache directory
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
