"""Exception types shared across the simulator, and the one check of a config's fields.

Every config dataclass (``ExperimentConfig``, ``MetaHyper``,
``PopulationSpec``, ``EnvironmentSpec``) checks its own fields with
``check_fields`` in its ``__post_init__``, whether it is read from JSON or
built in code, and a rejected config is a ``ConfigurationError``.
``NetworkConfig``, a solver input, runs the same check and raises
``InvalidInputError``.
"""

import math


class InvalidInputError(ValueError):
    """An argument violates an operation's precondition."""


class ConfigurationError(ValueError):
    """An experiment configuration is inconsistent or infeasible."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite intermediates."""


class InfeasibleAllocationError(ValueError):
    """An allocation violates the resource constraints."""


def check_fields(config, *, at_least_1=(), positive=(), nonnegative=(), choices=None,
                 ranges=(), error=ConfigurationError) -> None:
    """Raise ``error`` naming the first field of ``config`` that breaks a rule.

    Every float of every field must be finite, each element of a tuple field
    too.  Each element of a field named in ``at_least_1``, ``positive`` or
    ``nonnegative`` must meet that bound, a field of ``choices`` (name ->
    allowed values) must be one of its values, and a ``ranges`` field
    ``(low, high)`` must have low <= high.  A field that is None passes.
    """
    values = {name: value if isinstance(value, tuple) else (value,)
              for name, value in vars(config).items() if value is not None}
    for name, vs in values.items():
        if any(isinstance(v, float) and not math.isfinite(v) for v in vs):
            raise error(f"{name} must be finite, got {getattr(config, name)}")
    for names, holds, wording in ((at_least_1, lambda v: v >= 1, "at least 1"),
                                  (positive, lambda v: v > 0, "positive"),
                                  (nonnegative, lambda v: v >= 0, "non-negative")):
        for name in names:
            if name in values and not all(map(holds, values[name])):
                raise error(f"{name} must be {wording}, got {getattr(config, name)}")
    for name, allowed in (choices or {}).items():
        if (value := getattr(config, name)) not in allowed:
            raise error(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
    for name in ranges:
        low, high = getattr(config, name)
        if low > high:
            raise error(f"{name} must be two finite bounds with low <= high, got {[low, high]}")
