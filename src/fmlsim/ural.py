"""Joint CPU-frequency, resource-block and power optimization.

The round objective U - eta1*E - eta2*T separates into a computation part
(frequency control, solved in closed form) and a communication part (RB
matching plus power control, solved by the iterative matching/power/delay
loop).  Devices are rows: the scores ``u`` and the fields of
``ComputeProfile`` / ``RadioProfile`` are aligned arrays, one entry per
device, and a matching is a pair of index arrays ``(rows, rbs)``: row
``rows[k]`` sends on RB ``rbs[k]``.  All solvers are deterministic; ties are
broken by the lower row.

scipy serves only the Hungarian step of the RB matching: ``load_matcher``
imports it on first call, and ``harness.run`` calls it during the set-up
of a ``ural`` run, so no other run, command or import loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .wireless import ComputeProfile, NetworkConfig, RadioProfile

IVES_EPS = 1e-9
IVES_MAX_ITERS = 50
BISECT_TOL = 1e-10


@dataclass
class Sp1Solution:
    nu: np.ndarray          # CPU frequency of every row
    objective: float


@dataclass
class Sp2Solution:
    rows: np.ndarray        # matched rows, ascending
    z: np.ndarray           # RB of each matched row
    p: np.ndarray           # power of each matched row
    delta: float
    objective: float
    iterations: int
    trace: list[float] = field(default_factory=list)


def g1_objective(
    work: np.ndarray, iota: np.ndarray, nu: np.ndarray, weights: tuple[float, float]
) -> float:
    """eta1 * sum (iota/2) w nu^2 + eta2 * max w / nu, with work w = c * D per device."""
    eta1, eta2 = weights
    if (nu <= 0).any():
        return math.inf
    return float(eta1 * (0.5 * iota * work * nu * nu).sum() + eta2 * (work / nu).max())


def solve_sp1(compute: ComputeProfile, weights: tuple[float, float]) -> Sp1Solution:
    """Frequencies minimizing g1, in closed form.

    Finishing before the slowest device only costs energy, so at the optimum
    every device runs at nu_i = s * w_i for one common speed s (the inverse
    of the common computation time).  g1 is then
    eta1/2 * s^2 * sum iota w^3 + eta2 / s, minimized at
    s^3 = eta2 / (eta1 * sum iota w^3), and s is capped by min nu_max / w so
    no device exceeds its frequency limit.
    """
    if not compute.c.size:
        raise InvalidInputError("sp1 needs at least one device")
    eta1, eta2 = weights
    if eta1 <= 0 or eta2 <= 0:
        raise InvalidInputError("sp1 requires strictly positive weights")
    work = compute.work
    speed = min(
        (eta2 / (eta1 * (compute.iota * work ** 3).sum())) ** (1.0 / 3.0),
        (compute.nu_max / work).min(),
    )
    nu = speed * work
    return Sp1Solution(nu=nu, objective=g1_objective(work, compute.iota, nu, weights))


@functools.cache
def load_matcher():
    """scipy's ``linear_sum_assignment``, imported on the first call."""
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def min_cost_assignment(weights: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-weight partial matching using only negative-weight edges.

    ``weights`` is an n-by-M matrix; entries that are +inf (or NaN) are
    forbidden.  Rows and columns may stay unmatched: an edge is only worth
    taking if its weight is negative.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise InvalidInputError("weight matrix must be 2-D")
    usable = np.isfinite(weights) & (weights < 0)
    if not usable.any():
        return []
    # zero-padding: dropping a non-negative edge is free, so the optimal
    # assignment over clipped weights equals the optimal partial matching
    clipped = np.where(usable, weights, 0.0)
    rows, cols = load_matcher()(clipped)
    return [(int(i), int(m)) for i, m in zip(rows, cols) if usable[i, m]]


def rb_matching(
    u: np.ndarray, radios: RadioProfile, delta: float, net: NetworkConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal RB assignment ``(rows, rbs)`` for a given transmission delay.

    mu[i, m] is the power device i needs on RB m to finish the upload in
    exactly delta.  Pairs whose mu exceeds the device cap are forbidden;
    among the rest, the matching maximizes sum of (u_i - eta1*delta*mu_{i,m}).
    """
    if delta <= 0:
        raise InvalidInputError("delta must be positive")
    with np.errstate(over="ignore"):
        growth = np.exp2(net.S / (net.B * delta)) - 1.0
    mu = net.noise * growth / radios.h[:, None]
    cap = radios.p_max[:, None]
    # the relative slack absorbs round-off when delta was realized by a
    # device transmitting exactly at its power cap
    feasible = mu <= cap * (1.0 + 1e-9)
    gain = u[:, None] - net.eta1 * delta * np.minimum(mu, cap)
    cost = np.where(feasible & (gain > 0), -gain, np.inf)
    pairs = np.array(min_cost_assignment(cost), dtype=int).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def f4_zero(b1: float, eta2: float, tol: float = BISECT_TOL) -> float:
    """Unique zero of f4(p) = b1*((1+p)*ln(1+p) - p) - eta2 on (0, b2] by bisection."""
    if b1 <= 0 or eta2 <= 0 or tol <= 0:
        raise InvalidInputError("f4_zero requires positive b1, eta2 and tol")

    def f4(p: float) -> float:
        return b1 * ((1.0 + p) * math.log1p(p) - p) - eta2

    log2_b2 = (1.0 + math.sqrt(max(eta2 / b1, 1.0) - 1.0)) / math.log(2.0)
    # 200 halvings resolve the analytic bracket to tol only while eta2/b1 is
    # below ~1.3e4 (and it overflows past ~5e5); beyond, p = eta2/b1 brackets
    # the zero, since f4(eta2/b1) >= 0 once ln(1 + eta2/b1) >= 2
    b2 = 2.0 ** log2_b2 if log2_b2 <= 200.0 + math.log2(tol) else eta2 / b1
    while f4(b2) < 0.0:  # float-safety; the analytic bracket already suffices
        b2 *= 2.0
    lo, hi = 0.0, b2
    f_tol = tol * max(1.0, b1, eta2)
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f4(mid)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol and abs(fm) <= f_tol:
            break
    return mid


def solve_sp2_power(
    radios: RadioProfile, rows: np.ndarray, rbs: np.ndarray, net: NetworkConfig
) -> np.ndarray:
    """Powers of a non-empty matching, equalizing the normalized SNR.

    Works in units p~ = h*p/(I_m + B*N0): the common p~ is the f4 zero
    capped by the tightest per-device power limit, then converted back to
    watts per device.
    """
    noise = net.noise[rbs] / radios.h[rows]
    p_tilde = min(
        f4_zero(net.eta1 * float(noise.sum()), net.eta2),
        (radios.p_max[rows] / noise).min(),
    )
    return noise * p_tilde


def g2_objective(
    u: np.ndarray, radios: RadioProfile, rows: np.ndarray, rbs: np.ndarray,
    p: np.ndarray, net: NetworkConfig,
) -> float:
    """sum u_i - eta1 * transmission energy - eta2 * max transmission time."""
    if not rows.size:
        return 0.0
    rates = net.rate(radios.h[rows], p, rbs)
    if (rates <= 0).any():
        return -math.inf
    t = net.S / rates
    return float((u[rows] - net.eta1 * t * p).sum() - net.eta2 * t.max())


def initial_delay(radios: RadioProfile, net: NetworkConfig) -> float:
    """Most conservative start: the slowest full-power upload over all device/RB pairs."""
    rates = net.rate(radios.h[:, None], radios.p_max[:, None])
    if (rates <= 0).any():
        row, m = np.argwhere(rates <= 0)[0]
        raise InvalidInputError(f"device row {row} cannot transmit on RB {m}")
    return float((net.S / rates).max())


def ives(
    u: np.ndarray,
    radios: RadioProfile,
    net: NetworkConfig,
    eps: float = IVES_EPS,
    max_iters: int = IVES_MAX_ITERS,
) -> Sp2Solution:
    """Alternate RB matching, power optimization and delay update until g2 settles.

    ``u`` holds every row's (positively shifted) contribution score.
    """
    if not u.size or net.M < 1:
        raise InvalidInputError("ives needs at least one device and one RB")
    if u.shape != radios.h.shape:
        raise InvalidInputError(f"ives needs one score per device row, got {u.shape}")
    if u.min() <= 0:
        raise InvalidInputError("contribution scores must be shifted positive")
    delta = initial_delay(radios, net)
    empty = np.zeros(0, dtype=int)
    best_g2, best = 0.0, (empty, empty, np.zeros(0), delta)  # rows, rbs, p, delta
    trace: list[float] = []
    for _ in range(max_iters):
        rows, rbs = rb_matching(u, radios, delta, net)
        if not rows.size:
            trace.append(0.0)
            break
        p = solve_sp2_power(radios, rows, rbs, net)
        g2 = g2_objective(u, radios, rows, rbs, p, net)
        trace.append(g2)
        delta_next = float((net.S / net.rate(radios.h[rows], p, rbs)).max())
        if g2 > best_g2:
            best_g2, best = g2, (rows, rbs, p, delta_next)
        if len(trace) > 1 and abs(g2 - trace[-2]) <= eps * max(1.0, abs(g2)):
            break
        delta = delta_next
    rows, rbs, p, delta = best
    return Sp2Solution(
        rows=rows,
        z=rbs,
        p=p,
        delta=delta,
        objective=best_g2,
        iterations=len(trace),
        trace=trace,
    )


def ural(
    compute: ComputeProfile, radios: RadioProfile, net: NetworkConfig, u: np.ndarray
) -> tuple[Sp1Solution, Sp2Solution]:
    """Solve the frequency sub-problem and the matching/power sub-problem."""
    sp1 = solve_sp1(compute, (net.eta1, net.eta2))
    sp2 = ives(u, radios, net)
    return sp1, sp2
