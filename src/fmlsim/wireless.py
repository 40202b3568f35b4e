"""Per-round computation/communication costs and environment sampling.

One uplink resource block (RB) carries at most one device per round; a
device occupies at most one RB.  Computation cost scales with CPU cycles
per sample times the local batch size; communication cost follows the
Shannon rate of the assigned RB.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InfeasibleAllocationError, InvalidInputError

log = logging.getLogger(__name__)

_P_MAX_FLOOR = 1e-6


@dataclass(frozen=True)
class ComputeProfile:
    c: float        # CPU cycles per sample
    iota: float     # effective capacitance coefficient (energy = iota/2 * work * nu^2)
    D: int          # local batch size
    nu_max: float   # max CPU frequency

    def __post_init__(self):
        if min(self.c, self.iota, self.D, self.nu_max) <= 0:
            raise InvalidInputError("compute profile fields must be positive")


@dataclass(frozen=True)
class RadioProfile:
    h: float        # channel gain
    p_max: float    # max transmission power

    def __post_init__(self):
        if self.h <= 0 or self.p_max <= 0:
            raise InvalidInputError("radio profile fields must be positive")


@dataclass(frozen=True)
class NetworkConfig:
    M: int                      # RB count
    B: float                    # per-RB bandwidth
    N0: float                   # noise power spectral density
    interference: tuple[float, ...]  # I_m, length M
    S: float                    # model payload size
    eta1: float = 1.0
    eta2: float = 1.0

    def __post_init__(self):
        if self.M < 1 or self.B <= 0 or self.N0 <= 0 or self.S <= 0:
            raise InvalidInputError("network config fields out of range")
        if len(self.interference) != self.M or min(self.interference) < 0:
            raise InvalidInputError("interference vector must be nonnegative, length M")
        if self.eta1 < 0 or self.eta2 < 0:
            raise InvalidInputError("weights eta1, eta2 must be nonnegative")


@dataclass
class Allocation:
    """A round's decision: RB assignment, powers, frequencies, realized delay."""

    z: dict[int, int]        # device id -> RB index (partial)
    p: dict[int, float]      # device id -> transmission power (0 if unassigned)
    nu: dict[int, float]     # device id -> CPU frequency
    delta: float = 0.0       # realized transmission delay


def transmission_rate(radio: RadioProfile, net: NetworkConfig, m: int, p: float) -> float:
    """Achievable uplink rate B * log2(1 + h*p / (I_m + B*N0))."""
    if p < 0:
        raise InvalidInputError("power must be nonnegative")
    if not 0 <= m < net.M:
        raise InvalidInputError(f"RB index {m} out of range")
    return net.B * np.log2(1.0 + radio.h * p / (net.interference[m] + net.B * net.N0))


def comp_cost(cp: ComputeProfile, tau: int, nu: float) -> tuple[float, float]:
    """(time, energy) of tau local steps at frequency nu."""
    if tau == 0:
        return 0.0, 0.0
    if nu <= 0:
        raise InfeasibleAllocationError("zero CPU frequency gives infinite computation time")
    work = tau * cp.c * cp.D
    return work / nu, 0.5 * cp.iota * work * nu * nu


def comm_cost(radio: RadioProfile, net: NetworkConfig, m: int, p: float) -> tuple[float, float]:
    """(time, energy) of uploading the payload on RB m at power p."""
    rate = transmission_rate(radio, net, m, p)
    if rate <= 0:
        raise InfeasibleAllocationError("zero transmission rate")
    t = net.S / rate
    return t, t * p


def _validate_allocation(
    compute: dict[int, ComputeProfile],
    radios: dict[int, RadioProfile],
    net: NetworkConfig,
    alloc: Allocation,
) -> None:
    used_rbs: set[int] = set()
    for i, m in alloc.z.items():
        if not 0 <= m < net.M:
            raise InfeasibleAllocationError(f"device {i} assigned invalid RB {m}")
        if m in used_rbs:
            raise InfeasibleAllocationError(f"RB {m} assigned to more than one device")
        used_rbs.add(m)
    for i, p in alloc.p.items():
        if p < 0 or p > radios[i].p_max * (1 + 1e-12):
            raise InfeasibleAllocationError(f"power of device {i} outside [0, p_max]")
        if i not in alloc.z and p != 0.0:
            raise InfeasibleAllocationError(f"unassigned device {i} has nonzero power")
    for i, nu in alloc.nu.items():
        if nu < 0 or nu > compute[i].nu_max * (1 + 1e-12):
            raise InfeasibleAllocationError(f"frequency of device {i} outside [0, nu_max]")


def round_totals(
    compute: dict[int, ComputeProfile],
    radios: dict[int, RadioProfile],
    net: NetworkConfig,
    alloc: Allocation,
    u: dict[int, float],
    tau: int = 1,
) -> tuple[float, float, float]:
    """Round totals (U, E, T) over all computing devices and assigned transmitters."""
    _validate_allocation(compute, radios, net, alloc)
    energy = 0.0
    comp_times = []
    for i, cp in compute.items():
        t, e = comp_cost(cp, tau, alloc.nu[i])
        energy += e
        comp_times.append(t)
    comm_times = [0.0]
    contribution = 0.0
    for i, m in alloc.z.items():
        t, e = comm_cost(radios[i], net, m, alloc.p[i])
        energy += e
        comm_times.append(t)
        contribution += u[i]
    total_time = max(comp_times) + max(comm_times)
    return contribution, energy, total_time


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
        if self.M < 1:
            raise InvalidInputError(f"M must be at least 1, got {self.M}")
        for name in ("B", "N0", "S"):
            if (value := getattr(self, name)) <= 0:
                raise InvalidInputError(f"{name} must be positive, got {value}")
        for name in ("eta1", "eta2"):
            if (value := getattr(self, name)) < 0:
                raise InvalidInputError(f"{name} must be nonnegative, got {value}")
        for name in ("h_range", "interference_range", "p_max_range",
                     "nu_max_range", "c_range", "iota_range"):
            low, high = getattr(self, name)
            if not (math.isfinite(low) and math.isfinite(high) and low <= high):
                raise InvalidInputError(
                    f"{name} must be two finite bounds with low <= high, got {[low, high]}"
                )
        # sample_environment redraws p_max and nu_max until they reach the
        # floor, which never happens if the upper bound lies below it
        for name in ("p_max_range", "nu_max_range"):
            high = getattr(self, name)[1]
            if high <= _P_MAX_FLOOR:
                raise InvalidInputError(f"{name} upper bound must exceed {_P_MAX_FLOOR}, got {high}")


def sample_environment(
    g: np.random.Generator, spec: EnvironmentSpec, batch_sizes: dict[int, int]
) -> tuple[dict[int, ComputeProfile], dict[int, RadioProfile], NetworkConfig]:
    """Sample compute/radio attributes per device and the RB interference vector.

    ``batch_sizes`` maps each device id, in sampling order, to its local
    batch size D.
    """
    compute: dict[int, ComputeProfile] = {}
    radios: dict[int, RadioProfile] = {}
    for i, batch in batch_sizes.items():
        c = g.uniform(*spec.c_range)
        iota = g.uniform(*spec.iota_range)
        nu_max = g.uniform(*spec.nu_max_range)
        while nu_max < _P_MAX_FLOOR:
            log.info("resampling degenerate nu_max for device %d", i)
            nu_max = g.uniform(*spec.nu_max_range)
        p_max = g.uniform(*spec.p_max_range)
        while p_max < _P_MAX_FLOOR:
            log.info("resampling degenerate p_max for device %d", i)
            p_max = g.uniform(*spec.p_max_range)
        h = g.uniform(*spec.h_range)
        compute[i] = ComputeProfile(c=c, iota=iota, D=batch, nu_max=nu_max)
        radios[i] = RadioProfile(h=h, p_max=p_max)
    interference = tuple(g.uniform(*spec.interference_range) for _ in range(spec.M))
    net = NetworkConfig(M=spec.M, B=spec.B, N0=spec.N0, interference=interference,
                        S=spec.S, eta1=spec.eta1, eta2=spec.eta2)
    return compute, radios, net


def environment_to_json(
    compute: dict[int, ComputeProfile],
    radios: dict[int, RadioProfile],
    net: NetworkConfig,
) -> str:
    payload = {
        "network": asdict(net),
        "devices": {
            str(i): {"compute": asdict(compute[i]), "radio": asdict(radios[i])}
            for i in sorted(compute)
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
