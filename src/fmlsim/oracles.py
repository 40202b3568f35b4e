"""Independent reference implementations for the closed-form solvers.

These deliberately avoid the solver code paths: the frequency oracle is a
refined grid search, the power root a plain bisection (``f4_bisection``),
the assignment oracle a bitmask dynamic program (for both the general
assignment solver and the RB matching), the matching/power/delay loop is
checked only through its objective trace.
The paper's one-round descent bound (Theorem 1) lives here with its
constants: ``population_constants`` estimates them from a population and
``theorem1_bound`` sets the bound against Monte-Carlo loss decreases of the
batched estimator, which the descent-bound suite checks.  Used by both the
test suite and the ``oracle`` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng, ural
from .errors import InvalidInputError, NumericalError
from .metacore import (
    DeviceArrays,
    LossPlan,
    MetaHyper,
    QuadraticModel,
    StepPlan,
    adapted_loss,
    batched_meta_gradient,
    draw_role_batches,
)
from .selection import aggregate
from .tasks import PopulationSpec, generate_population
from .ural import Uplink, f4_zero, ives, min_cost_assignment, rb_matching, solve_sp1
from .wireless import ComputeProfile, NetworkConfig, RadioProfile, running_sum


def g1_grid_minimum(
    compute: ComputeProfile,
    weights: tuple[float, float],
    points: int = 100_000,
    refinements: int = 4,
) -> float:
    """Refined grid search for the frequency-control objective.

    For any target worst-case completion time t, the energy term is
    minimized by the slowest feasible frequencies nu_i = work_i / t (valid
    whenever t is at least every device's fastest completion time), so the
    search space is exactly the 1-D interval of achievable worst-case
    times.  Every grid point is evaluated through the original objective.
    """
    eta1, eta2 = weights
    work = compute.c * compute.D
    ecoef = eta1 * 0.5 * compute.iota * work
    nu_max = compute.nu_max

    def value(t: np.ndarray) -> np.ndarray:
        nus = work[None, :] / t[:, None]
        return (nus ** 2 @ ecoef) + eta2 * t

    t_floor = float((work / nu_max).max())     # every device at full speed
    lo, hi = t_floor, t_floor
    while value(np.array([2.0 * hi]))[0] < value(np.array([hi]))[0]:
        hi *= 2.0
    hi *= 2.0
    best = math.inf
    for _ in range(refinements):
        ts = np.linspace(lo, hi, points)
        vals = value(ts)
        idx = int(np.argmin(vals))
        best = min(best, float(vals[idx]))
        step = (hi - lo) / (points - 1)
        lo = max(t_floor, float(ts[idx]) - 2.0 * step)
        hi = float(ts[idx]) + 2.0 * step
    return best


def assignment_brute_force(weights: np.ndarray) -> float:
    """Optimal partial-matching total via DP over column bitmasks (n, M <= 7)."""
    w = np.asarray(weights, dtype=float)
    n, m = w.shape
    if n > 7 or m > 7:
        raise ValueError("brute-force oracle only supports n, M <= 7")
    full = 1 << m
    dp = np.zeros(full)
    for i in range(n):
        nxt = dp.copy()  # row i left unmatched
        for mask in range(full):
            base = dp[mask]
            for col in range(m):
                bit = 1 << col
                if mask & bit or not (np.isfinite(w[i, col]) and w[i, col] < 0):
                    continue
                cand = base + w[i, col]
                if cand < nxt[mask | bit]:
                    nxt[mask | bit] = cand
        dp = nxt
    return float(dp.min())


# ---------------------------------------------------------------------------
# the one-round descent bound (Theorem 1) and its constants


@dataclass
class SmoothnessConstants:
    """Smoothness, variance and similarity constants of a device population.

    ``zeta`` and ``gamma_G`` depend on the iterate; they start as NaN and
    ``theorem1_bound`` fills them with their empirical values at its theta.
    """

    alpha: float
    L: float
    rho: float = 0.0
    zeta: float = float("nan")
    sigma_G: float = 0.0
    sigma_H: float = 0.0
    gamma_G: float = float("nan")
    gamma_H: float = 0.0

    @property
    def L_F(self) -> float:
        rho_term = self.alpha * self.rho * self.zeta if self.rho > 0 else 0.0
        return (1.0 + self.alpha * self.L) ** 2 * self.L + rho_term


def _spectral_norm(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in the trailing two axes."""
    return np.linalg.norm(m, 2, axis=(-2, -1))


def _sample_mean(data: DeviceArrays, per_sample: np.ndarray) -> np.ndarray:
    """Each row's mean of a per-sample quantity (n, S_max, ...) over its real samples."""
    trailing = (1,) * (per_sample.ndim - 2)
    total = np.where(data.mask.reshape(data.mask.shape + trailing), per_sample, 0.0).sum(axis=1)
    return total / data.counts.reshape((-1,) + trailing)


def gradient_noise_std(data: DeviceArrays, theta: np.ndarray) -> np.ndarray:
    """Per row, sqrt of the per-sample gradient variance at theta, (d,) or one per row."""
    grads = data.model_class.per_sample_grad(theta, data.x, data.y)
    devs = grads - _sample_mean(data, grads)[:, None]
    return np.sqrt(_sample_mean(data, np.sum(devs ** 2, axis=-1)))


def hessian_noise_std(data: DeviceArrays, theta: np.ndarray) -> np.ndarray:
    """Per row, sqrt of the per-sample Hessian variance (spectral norm) around the mean."""
    hs = data.model_class.per_sample_hessian(theta, data.x, data.y)
    devs = hs - _sample_mean(data, hs)[:, None]
    return np.sqrt(_sample_mean(data, _spectral_norm(devs) ** 2))


def empirical_gamma_g(data: DeviceArrays, theta: np.ndarray) -> float:
    """Max pairwise gradient gap at theta (trajectory-empirical similarity constant)."""
    grads = data.grad(data.full_weights, theta)
    return float(np.linalg.norm(grads[:, None] - grads[None], axis=-1).max())


def population_constants(data: DeviceArrays, alpha: float) -> SmoothnessConstants:
    """Analytic smoothness constants of a population, at theta = 0.

    zeta and gamma_G depend on the iterate and are returned as NaN;
    ``theorem1_bound`` fills them with their empirical values at its theta.
    """
    theta0 = np.zeros(data.x.shape[-1])
    hessians = _sample_mean(data, data.model_class.per_sample_hessian(theta0, data.x, data.y))
    # per-sample |sigma''| <= 1/(6*sqrt(3)); Hessian-Lipschitz via mean ||x||^3
    cubes = _sample_mean(data, np.linalg.norm(data.x, axis=-1) ** 3)
    rho = 0.0 if data.model_class is QuadraticModel else float(cubes.max()) / (6.0 * np.sqrt(3.0))
    return SmoothnessConstants(
        alpha=alpha,
        L=float(_spectral_norm(hessians).max()),
        rho=rho,
        sigma_G=float(gradient_noise_std(data, theta0).max()),
        sigma_H=float(hessian_noise_std(data, theta0).max()),
        gamma_H=float(_spectral_norm(hessians[:, None] - hessians[None]).max()),
    )


@dataclass
class BoundReport:
    """One-round loss-decrease estimate against its analytic lower bound."""

    lhs: float                      # Monte-Carlo E[F(theta_k) - F(theta_{k+1})]
    lhs_se: float                   # Monte-Carlo standard error of lhs
    rhs: float                      # analytic lower bound
    sigma_F: np.ndarray             # one entry per selected row


def sigma_f_squared(c: SmoothnessConstants, d: int, d_prime: int, d_double: int) -> float:
    """Second-moment bound of the meta-gradient estimator for given batch sizes."""
    a = 1.0 / d_prime + (c.alpha * c.L) ** 2 / d
    return (
        6.0 * c.sigma_G ** 2 * (1.0 + c.alpha * c.L) ** 2 * a
        + 3.0 * (c.alpha * c.zeta * c.sigma_H) ** 2 / d_double
        + 6.0 * (c.alpha * c.sigma_G * c.sigma_H) ** 2 / d_double * a
    )


def meta_gradient_bias_bound(c: SmoothnessConstants, d: int) -> float:
    """Bias bound alpha * sigma_G * L * (1 + alpha*L) / sqrt(D)."""
    return c.alpha * c.sigma_G * c.L * (1.0 + c.alpha * c.L) / math.sqrt(d)


def theorem1_bound(
    data: DeviceArrays,
    theta: np.ndarray,
    hyper: MetaHyper,
    constants: SmoothnessConstants,
    rows: np.ndarray,
    batch_size: int | None = None,
    mc: int = 256,
    seed: int = 0,
) -> BoundReport:
    """Monte-Carlo one-round loss decrease versus the analytic lower bound.

    ``rows`` are the selected rows of ``data``, ascending.  The mc resamples
    of every selected row are one ``batched_meta_gradient`` pass on the
    compact batches ``draw_role_batches`` draws from the stream ``(seed,)``.
    Restricted to tau=1 (the single-step form of the bound).  zeta and
    gamma_G are filled with empirical values at theta when not supplied.
    """
    if hyper.tau != 1:
        raise InvalidInputError("the one-round bound requires tau=1")
    rows = np.asarray(rows)
    if not rows.size or np.any(np.diff(rows) <= 0) or rows[0] < 0 or rows[-1] >= data.counts.size:
        raise InvalidInputError("selected rows must be nonempty, ascending and in range")

    c = constants
    if math.isnan(c.zeta):
        grads = data.grad(data.full_weights, theta)
        c = replace(c, zeta=float(np.linalg.norm(grads, axis=1).max()))
    if math.isnan(c.gamma_G):
        c = replace(c, gamma_G=empirical_gamma_g(data, theta))

    sizes = data.batch_sizes(batch_size)[rows]
    sigma_f = np.sqrt(sigma_f_squared(c, sizes, sizes, sizes))

    # resample r of selected row k is row r*len(rows) + k of the tiled arrays
    tiled = data.take(np.tile(rows, mc))
    batches = draw_role_batches(rng.stream(seed), StepPlan(tiled, np.tile(sizes, mc), hyper))
    grads = batched_meta_gradient(data.model_class, theta, zip(*batches), hyper)
    grads = grads.reshape(mc, rows.size, -1)
    if not np.all(np.isfinite(grads)):
        raise NumericalError("meta-gradient produced non-finite values")
    losses = LossPlan(data, alpha=c.alpha)
    (f_now,) = adapted_loss(losses, theta)
    after = [adapted_loss(losses, aggregate(theta - hyper.beta * g)) for g in grads]
    decreases = f_now - np.array(after)[:, 0]

    dissimilarity = math.sqrt(
        (1.0 + c.alpha * c.L) ** 2 * c.gamma_G + c.alpha * c.zeta * c.gamma_H
    )
    second_moment = np.einsum("rkd,rkd->rk", grads, grads).mean(axis=0)
    rhs_terms = ((1.0 - c.L_F * hyper.beta / 2.0) * second_moment
                 - (dissimilarity + sigma_f) * np.sqrt(second_moment))
    rhs = hyper.beta * float(rhs_terms.mean())

    lhs = float(decreases.mean())
    lhs_se = float(decreases.std(ddof=1) / math.sqrt(mc)) if mc > 1 else 0.0
    if not np.isfinite([lhs, lhs_se, rhs, *sigma_f]).all():
        raise NumericalError(f"descent bound is not finite: lhs={lhs}, rhs={rhs}")
    return BoundReport(lhs=lhs, lhs_se=lhs_se, rhs=rhs, sigma_F=sigma_f)


# ---------------------------------------------------------------------------
# random-instance suites


_KEY_ORACLE = 7101


def _random_compute(g: np.random.Generator, n: int) -> ComputeProfile:
    draws = [(g.uniform(0.5, 1.5), g.uniform(1.0, 3.0), int(g.integers(1, 10)),
              g.uniform(0.2, 2.0)) for _ in range(n)]
    c, iota, D, nu_max = zip(*draws)
    return ComputeProfile(c=c, iota=iota, D=D, nu_max=nu_max)


def _random_radio_env(
    g: np.random.Generator, n: int, m: int
) -> tuple[RadioProfile, NetworkConfig]:
    h, p_max = zip(*[(g.uniform(0.1, 1.0), g.uniform(0.05, 1.0)) for _ in range(n)])
    radios = RadioProfile(h=h, p_max=p_max)
    net = NetworkConfig(
        M=m, B=1.0, N0=0.1,
        interference=tuple(g.uniform(0.0, 0.8) for _ in range(m)),
        S=1.0,
        eta1=g.uniform(0.5, 2.0),
        eta2=g.uniform(0.5, 2.0),
    )
    return radios, net


@dataclass
class SuiteResult:
    name: str
    instances: int
    failures: int
    max_deviation: float
    note: str = ""                  # an extra report line

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _suite(name: str, tag: int, instances: int, seed: int, instance) -> SuiteResult:
    """Run ``instance(g, r)`` for r < ``instances`` on the stream ``(seed, _KEY_ORACLE, tag, r)``.

    Each instance returns its deviation and whether it holds.  An instance
    fails when it does not hold or its deviation is not finite (a NaN
    included); ``max_deviation`` is the largest deviation, infinite if any
    was not finite.
    """
    worst = 0.0
    failures = 0
    for r in range(instances):
        dev, holds = instance(rng.stream(seed, _KEY_ORACLE, tag, r), r)
        worst = max(worst, dev) if math.isfinite(dev) else math.inf
        failures += not (holds and math.isfinite(dev))
    return SuiteResult(name, instances, failures, worst)


def sp1_suite(instances: int = 50, seed: int = 0, tol: float = 1e-6) -> SuiteResult:
    """Closed-form frequency solution versus refined grid search."""
    def instance(g, r):
        compute = _random_compute(g, int(g.integers(1, 4)))
        weights = (g.uniform(0.5, 2.0), g.uniform(0.5, 2.0))
        closed = solve_sp1(compute, weights).objective
        grid = g1_grid_minimum(compute, weights)
        dev = abs(closed - grid)
        # the closed form must match the grid optimum and never exceed it
        return dev, dev <= tol and closed <= grid + tol
    return _suite("sp1", 1, instances, seed, instance)


def assignment_suite(instances: int = 500, seed: int = 0, tol: float = 1e-9) -> SuiteResult:
    """Shortest-augmenting-path partial matching versus the bitmask DP optimum."""
    def instance(g, r):
        n, m = int(g.integers(1, 8)), int(g.integers(1, 8))
        w = g.uniform(-5.0, 5.0, size=(n, m))
        w[g.uniform(size=(n, m)) < 0.3] = np.inf  # forbidden edges
        got = running_sum(np.array([w[i, j] for i, j in min_cost_assignment(w)]))
        dev = abs(got - assignment_brute_force(w))
        return dev, dev <= tol
    return _suite("assignment", 2, instances, seed, instance)


def rb_matching_suite(instances: int = 500, seed: int = 0, tol: float = 1e-9) -> SuiteResult:
    """RB matching totals versus the bitmask DP optimum on the same gains.

    Random radio environments and scores with n, M <= 7.  Half the delays
    are drawn at random, half are a random device's full-power upload time
    on a random RB, as in the matching/power/delay loop, which puts a pair
    at its power cap.  The note counts how the matcher settled each
    instance: in-order without a certificate, certified, or solved by the
    general assignment solver.
    """
    settled = {"in-order": 0, "certified": 0, "solved": 0}

    def instance(g, r):
        n, m = int(g.integers(1, 8)), int(g.integers(1, 8))
        radios, net = _random_radio_env(g, n, m)
        u = g.uniform(0.1, 4.0, size=n)
        noise = np.asarray(net.interference) + net.B * net.N0
        if r % 2:
            delta = float(g.uniform(0.5, 4.0))
        else:
            i, j = int(g.integers(n)), int(g.integers(m))
            delta = net.S / (net.B * math.log2(1.0 + radios.h[i] * radios.p_max[i] / noise[j]))
        rows, rbs, how = rb_matching(u, Uplink(radios, net), delta)
        settled[how] += 1
        mu = noise * (2.0 ** (net.S / (net.B * delta)) - 1.0) / radios.h[:, None]
        cap = radios.p_max[:, None]
        gain = u[:, None] - net.eta1 * delta * mu
        cost = np.where((mu <= cap * (1.0 + ural.CAP_SLACK)) & (gain > 0), -gain, np.inf)
        dev = abs(float(cost[rows, rbs].sum()) - assignment_brute_force(cost))
        return dev, dev <= tol and len(set(rbs.tolist())) == rbs.size
    result = _suite("rb-matching", 5, instances, seed, instance)
    return replace(result, note=("rb-matching: {in-order} in-order, {certified} certified, "
                                 "{solved} solved by the assignment solver").format(**settled))


def f4_bisection(b1: float, eta2: float) -> float:
    """``f4_zero``'s reference: the zero of b1*((1+p)*ln(1+p) - p) - eta2 by bisection.

    With r = eta2/b1, f4 is increasing on p > 0, f4(0) < 0 and f4 >= 0 at
    e*(1 + r) - 1; that bracket is halved until its midpoint equals an end.
    """
    lo, hi = 0.0, math.e * (1.0 + eta2 / b1) - 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if b1 * ((1.0 + mid) * math.log1p(mid) - mid) - eta2 < 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def bisection_suite(instances: int = 1000, seed: int = 0, tol: float = 1e-8) -> SuiteResult:
    """The f4 root's residual (at most ``tol``, ``max_deviation`` the largest) and its
    relative distance from ``f4_bisection`` (at most 1e-12, the note the largest, NaN if any
    was NaN)."""
    distances: list[float] = []

    def instance(g, r):
        b1, eta2 = float(g.uniform(0.01, 100.0)), float(g.uniform(0.01, 100.0))
        root = f4_zero(b1, eta2)
        reference = f4_bisection(b1, eta2)
        distances.append(rel := abs(root - reference) / reference)
        resid = abs(b1 * ((1.0 + root) * math.log1p(root) - root) - eta2)
        return resid, resid <= tol and rel <= 1e-12
    result = _suite("bisection", 3, instances, seed, instance)
    farthest = np.max(distances, initial=0.0)
    return replace(result, note=f"bisection: max relative distance from the reference "
                                f"bisection {farthest:.3e}")


def ives_monotone_suite(
    instances: int = 100, seed: int = 0, tol: float = 1e-9
) -> tuple[SuiteResult, list[int]]:
    """Objective-trace monotonicity and iteration counts on random environments.

    An instance fails when its trace ever falls or holds a NaN, or when IVES
    runs ``IVES_MAX_ITERS`` iterations: a run that stops on its own exactly
    at the cap counts as a failure too, as the two cannot be told apart.  A
    ``-inf`` entry is g2 at a zero rate, not a failure.
    """
    iteration_counts: list[int] = []

    def instance(g, r):
        n, m = int(g.integers(2, 15)), int(g.integers(1, 21))
        radios, net = _random_radio_env(g, n, m)
        u = np.array([g.uniform(0.1, 5.0) for _ in range(n)])
        trace = ives(u, Uplink(radios, net)).trace
        iteration_counts.append(len(trace))
        drops = [a - b for a, b in zip(trace, trace[1:]) if a - b > tol * max(1.0, abs(a))]
        dev = math.nan if any(map(math.isnan, trace)) else max(drops, default=0.0)
        return dev, not drops and len(trace) < ural.IVES_MAX_ITERS
    result = _suite("ives-monotone", 4, instances, seed, instance)
    fast = len([c for c in iteration_counts if c <= 3])
    note = f"ives-monotone: {fast}/{instances} instances converged within 3 iterations"
    return replace(result, note=note), iteration_counts


def descent_bound_suite(populations: int = 25, thetas: int = 40, seed: int = 0) -> SuiteResult:
    """Theorem 1 on full-batch quadratic populations, every training device selected.

    An instance holds only when lhs + 3 standard errors is at least rhs, so a
    NaN fails; ``max_deviation`` is the largest ``rhs - (lhs + 3 se)``,
    negative if none fell short and infinite if any was not finite.
    """
    failures = 0
    worst = -math.inf
    for s in range(seed * populations, (seed + 1) * populations):
        data = generate_population(PopulationSpec(n=8, d=3), s).train
        # full-batch draws are deterministic, so the sampling-noise
        # constants are zero for this configuration
        c = replace(population_constants(data, 0.05), sigma_G=0.0, sigma_H=0.0)
        hyper = MetaHyper(alpha=0.05, beta=1.0 / (2.0 * c.L_F))
        g = rng.stream(777, s)
        for r in range(thetas):
            theta = g.normal(scale=1.5, size=3)
            rep = theorem1_bound(data, theta, hyper, c, np.arange(data.counts.size), mc=2, seed=r)
            shortfall = rep.rhs - (rep.lhs + 3.0 * rep.lhs_se)
            worst = max(worst, shortfall) if math.isfinite(shortfall) else math.inf
            failures += not rep.lhs + 3.0 * rep.lhs_se >= rep.rhs
    return SuiteResult("descent-bound", populations * thetas, failures, worst)


SUITES = {
    "sp1": sp1_suite,
    "assignment": assignment_suite,
    "rb-matching": rb_matching_suite,
    "bisection": bisection_suite,
    "ives-monotone": lambda seed: ives_monotone_suite(seed=seed)[0],
    "descent-bound": descent_bound_suite,
}
