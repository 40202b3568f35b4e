"""Per-round computation/communication costs and environment sampling.

One uplink resource block (RB) carries at most one device per round; a
device occupies at most one RB.  Computation cost scales with CPU cycles
per sample times the local batch size; communication cost follows the
Shannon rate of the assigned RB.

Devices are rows: ``ComputeProfile`` and ``RadioProfile`` hold one array
entry per training device, in the row order of the run's training arrays
(ascending device id), and an ``Allocation`` names its transmitters by row.
The ids themselves enter only ``environment_to_json``.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigurationError, InfeasibleAllocationError, InvalidInputError, check_fields

log = logging.getLogger(__name__)

_P_MAX_FLOOR = 1e-6


def _as_rows(profile, **dtypes) -> None:
    """Store the named fields of a frozen profile as equal-length, positive 1-D arrays.

    The arrays are read-only copies: a profile is fixed for a run, and a
    run's allocation plan keeps results computed from it (SP1, the uplink's
    quietest RBs and first prices, the computation part), built once before
    round 0.
    """
    arrays = {name: np.array(getattr(profile, name), dtype=dtype)
              for name, dtype in dtypes.items()}
    if len({a.shape for a in arrays.values()}) != 1 or next(iter(arrays.values())).ndim != 1:
        raise InvalidInputError(f"{type(profile).__name__} fields must be 1-D arrays of one length")
    for name, a in arrays.items():
        if not (a > 0).all():
            raise InvalidInputError(f"{type(profile).__name__}.{name} must be positive")
        a.flags.writeable = False
        object.__setattr__(profile, name, a)


@dataclass(frozen=True, eq=False)
class ComputeProfile:
    """Computation attributes of every device, one array entry per row."""

    c: np.ndarray       # CPU cycles per sample
    iota: np.ndarray    # effective capacitance coefficient (energy = iota/2 * work * nu^2)
    D: np.ndarray       # local batch size
    nu_max: np.ndarray  # max CPU frequency

    def __post_init__(self):
        _as_rows(self, c=float, iota=float, D=int, nu_max=float)

    @property
    def work(self) -> np.ndarray:
        """CPU cycles of one local step, c * D."""
        return self.c * self.D


@dataclass(frozen=True, eq=False)
class RadioProfile:
    """Radio attributes of every device, one array entry per row."""

    h: np.ndarray       # channel gain
    p_max: np.ndarray   # max transmission power

    def __post_init__(self):
        _as_rows(self, h=float, p_max=float)

    @functools.cached_property
    def h_order(self) -> np.ndarray:
        """Rows by ascending channel gain (stable)."""
        return np.argsort(self.h, kind="stable")


@dataclass(frozen=True)
class NetworkConfig:
    """The uplink: RB count, bandwidth, noise, interference, payload and cost weights."""

    M: int                      # RB count
    B: float                    # per-RB bandwidth
    N0: float                   # noise power spectral density
    interference: tuple[float, ...]  # I_m, length M
    S: float                    # model payload size
    eta1: float = 1.0
    eta2: float = 1.0

    def __post_init__(self):
        check_fields(self, at_least_1=("M",), positive=("B", "N0", "S"),
                     nonnegative=("interference", "eta1", "eta2"), error=InvalidInputError)
        if len(self.interference) != self.M:
            raise InvalidInputError(f"interference must have M={self.M} entries, "
                                    f"got {len(self.interference)}")

    @functools.cached_property
    def noise(self) -> np.ndarray:
        """Interference-plus-noise power I_m + B*N0 of every RB."""
        return np.asarray(self.interference, dtype=float) + self.B * self.N0

    @functools.cached_property
    def rb_order(self) -> np.ndarray:
        """RBs by ascending noise (stable): every device ranks the RBs in this order."""
        return np.argsort(self.noise, kind="stable")

    def rate(self, h, p, rbs=slice(None)) -> np.ndarray:
        """Shannon rates B * log2(1 + h*p / (I_m + B*N0)) on ``rbs`` (default: every RB)."""
        return self.B * np.log2(1.0 + h * p / self.noise[rbs])


@dataclass
class Allocation:
    """A round's uplink: row ``rows[k]`` sends on RB ``rbs[k]`` at power ``p[k]``.

    ``rows`` ascend.  The frequencies enter ``round_totals`` through its
    ``computation`` part.
    """

    rows: np.ndarray
    rbs: np.ndarray
    p: np.ndarray


def _validate_allocation(
    radios: RadioProfile, net: NetworkConfig, alloc: Allocation, u: np.ndarray, rows_total: int
) -> None:
    if not (alloc.rows.ndim == 1 and alloc.rows.shape == alloc.rbs.shape == alloc.p.shape
            and u.shape == (rows_total,)):
        raise InfeasibleAllocationError(
            "rows, rbs and p must align, and u has one entry per device row"
        )
    # index checks on lists: at most M transmitters, where numpy calls cost more
    rows, rbs = alloc.rows.tolist(), alloc.rbs.tolist()
    if rows != sorted(set(rows)) or rows and (rows[0] < 0 or rows[-1] >= rows_total):
        raise InfeasibleAllocationError(
            f"transmitting rows {rows} must be distinct device rows in ascending order"
        )
    if len(set(rbs)) < len(rbs) or rbs and (min(rbs) < 0 or max(rbs) >= net.M):
        raise InfeasibleAllocationError(f"RBs {rbs} must be distinct RBs of {net.M}")
    _check_ratio("p", alloc.p / radios.p_max[alloc.rows])


def _check_ratio(name: str, ratio: np.ndarray) -> None:
    """Value / cap lies in (0, 1]: one division and two reductions per quantity."""
    if not (ratio.min(initial=1.0) > 0 and ratio.max(initial=1.0) <= 1 + 1e-12):
        raise InfeasibleAllocationError(f"{name} / {name}_max outside (0, 1]: {ratio.tolist()}")


def computation(
    compute: ComputeProfile, nu: np.ndarray, tau: int = 1
) -> tuple[np.ndarray, float]:
    """Every row's energy for tau local steps at frequencies nu, and the slowest row's time.

    tau*c*D cycles at nu take work/nu and iota/2*work*nu^2 energy.  This is
    ``round_totals``' computation part: a run whose frequencies are fixed
    computes it once.
    """
    if nu.shape != compute.nu_max.shape:
        raise InfeasibleAllocationError(f"nu needs one entry per device row, got {nu.shape}")
    _check_ratio("nu", nu / compute.nu_max)
    work = tau * compute.c * compute.D
    return 0.5 * compute.iota * work * nu * nu, (work / nu).max()


def running_sum(x: np.ndarray) -> float:
    """Sum added left to right in plain float additions.

    Independent of numpy's pairwise summation and of the Python version:
    the builtin ``sum`` compensates float rounding from Python 3.12 on.
    """
    total = 0.0
    for v in x.tolist():
        total += v
    return total


def round_totals(
    comp: tuple[np.ndarray, float],
    radios: RadioProfile,
    net: NetworkConfig,
    alloc: Allocation,
    u: np.ndarray,
) -> tuple[float, float, float]:
    """Round totals (U, E, T): every row computes, ``alloc.rows`` upload.

    ``comp`` is the round's ``computation`` part, every row's energy and
    the slowest row's time; an upload takes S/rate and p*S/rate.  U and E
    add up in row order, computation energy before transmission energy.
    """
    comp_energy, comp_time = comp
    _validate_allocation(radios, net, alloc, u, comp_energy.size)
    comm_time = net.S / net.rate(radios.h[alloc.rows], alloc.p, alloc.rbs)
    energy = np.concatenate([comp_energy, comm_time * alloc.p])
    total_time = comp_time + comm_time.max(initial=0.0)
    return running_sum(u[alloc.rows]), running_sum(energy), float(total_time)


@dataclass
class EnvironmentSpec:
    """Sampling bounds for a random wireless environment."""

    M: int = 20
    B: float = 1.0
    N0: float = 0.1
    S: float = 1.0
    eta1: float = 1.0
    eta2: float = 1.0
    h_range: tuple[float, float] = (0.1, 1.0)
    interference_range: tuple[float, float] = (0.0, 0.8)
    p_max_range: tuple[float, float] = (0.0, 1.0)
    nu_max_range: tuple[float, float] = (0.0, 2.0)
    c_range: tuple[float, float] = (0.5, 1.5)
    iota_range: tuple[float, float] = (1.0, 3.0)

    def __post_init__(self):
        check_fields(self, at_least_1=("M",), positive=("B", "N0", "S", "eta1", "eta2"),
                     ranges=("h_range", "interference_range", "p_max_range",
                             "nu_max_range", "c_range", "iota_range"))
        # sample_environment redraws p_max and nu_max until they reach the
        # floor, which never happens if the upper bound lies below it
        for name in ("p_max_range", "nu_max_range"):
            high = getattr(self, name)[1]
            if high <= _P_MAX_FLOOR:
                raise ConfigurationError(
                    f"{name} upper bound must exceed {_P_MAX_FLOOR}, got {high}")


def sample_environment(
    g: np.random.Generator, spec: EnvironmentSpec, batch_sizes: np.ndarray
) -> tuple[ComputeProfile, RadioProfile, NetworkConfig]:
    """Sample compute/radio attributes per device row and the RB interference vector.

    ``batch_sizes[i]`` is row i's local batch size D; rows draw in order.
    """
    draws = []
    for row in range(len(batch_sizes)):
        c = g.uniform(*spec.c_range)
        iota = g.uniform(*spec.iota_range)
        nu_max = g.uniform(*spec.nu_max_range)
        while nu_max < _P_MAX_FLOOR:
            log.info("resampling degenerate nu_max for device row %d", row)
            nu_max = g.uniform(*spec.nu_max_range)
        p_max = g.uniform(*spec.p_max_range)
        while p_max < _P_MAX_FLOOR:
            log.info("resampling degenerate p_max for device row %d", row)
            p_max = g.uniform(*spec.p_max_range)
        h = g.uniform(*spec.h_range)
        draws.append((c, iota, nu_max, p_max, h))
    c, iota, nu_max, p_max, h = np.array(draws, dtype=float).reshape(-1, 5).T
    interference = tuple(g.uniform(*spec.interference_range) for _ in range(spec.M))
    net = NetworkConfig(M=spec.M, B=spec.B, N0=spec.N0, interference=interference,
                        S=spec.S, eta1=spec.eta1, eta2=spec.eta2)
    return (ComputeProfile(c=c, iota=iota, D=batch_sizes, nu_max=nu_max),
            RadioProfile(h=h, p_max=p_max), net)


def environment_to_json(
    compute: ComputeProfile, radios: RadioProfile, net: NetworkConfig, ids
) -> str:
    """The environment as JSON, each device's profiles under its id (``ids[i]`` is row i's)."""
    columns = {
        section: {f.name: getattr(profile, f.name).tolist() for f in fields(profile)}
        for section, profile in (("compute", compute), ("radio", radios))
    }
    payload = {
        "network": asdict(net),
        "devices": {
            str(i): {section: {name: values[row] for name, values in cols.items()}
                     for section, cols in columns.items()}
            for row, i in enumerate(ids)
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
