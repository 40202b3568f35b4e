"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Every criterion is checked against an independent reference (closed form,
exhaustive search, Monte-Carlo resampling, or a paired statistical test),
with the tolerance and runtime budget stated inline.
"""

import json
import time

import numpy as np
import scipy.stats

from fmlsim import rng
from fmlsim.cli import EXIT_OK, main
from fmlsim.harness import ExperimentConfig, run, sweep
from fmlsim.metacore import (
    Batch,
    DeviceArrays,
    MetaHyper,
    QuadraticModel,
    batched_meta_gradient,
    exact_meta_gradient,
    grad_estimate,
    hessian_estimate,
)
from fmlsim.oracles import (
    SmoothnessConstants,
    assignment_suite,
    bisection_suite,
    descent_bound_suite,
    gradient_noise_std,
    hessian_noise_std,
    ives_monotone_suite,
    meta_gradient_bias_bound,
    sigma_f_squared,
    sp1_suite,
)
from fmlsim.tasks import PopulationSpec
from fmlsim.ural import Uplink, solve_sp1, ural
from fmlsim.wireless import (
    Allocation,
    EnvironmentSpec,
    computation,
    round_totals,
    sample_environment,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _random_quadratic(g: np.random.Generator, n: int = 40, d: int = 3) -> Batch:
    """A quadratic-regression dataset (family ``QuadraticModel``)."""
    x = g.normal(size=(n, d))
    y = x @ g.normal(size=d) + 0.3 * g.normal(size=n)
    return Batch(x, y)


def test_meta_gradient_exactness():
    """Full-batch estimator equals the analytic meta-gradient to 1e-10."""
    t0 = time.perf_counter()
    worst = 0.0
    for inst in range(100):
        g = np.random.default_rng(inst)
        model = _random_quadratic(g)
        theta = g.normal(size=3)
        alpha = float(g.uniform(0.01, 0.2))
        hyper = MetaHyper(alpha=alpha, beta=0.0, mode="hessian")
        data = DeviceArrays(QuadraticModel, [model])
        full = np.broadcast_to(data.full_weights, (3,) + data.mask.shape)
        got = batched_meta_gradient(data, theta, full, hyper)[0]
        want = exact_meta_gradient(QuadraticModel, model, theta, alpha)
        rel = float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report("meta-gradient-exactness", ok,
            f"max relative error {worst:.2e} over 100 instances ({elapsed:.1f}s)")


def test_estimator_moments():
    """Bias and second moment of the stochastic estimator stay inside the
    analytic bounds, up to 3 Monte-Carlo standard errors, over 10^4 resamples
    on each of 5 instances."""
    t0 = time.perf_counter()
    resamples, batch = 10_000, 8
    failures = []
    for inst in range(5):
        g = np.random.default_rng(100 + inst)
        model = _random_quadratic(g)
        theta = g.normal(size=3)
        alpha = 0.05
        hyper = MetaHyper(alpha=alpha, beta=0.0, mode="hessian")
        exact = exact_meta_gradient(QuadraticModel, model, theta, alpha)
        L = float(np.linalg.norm(hessian_estimate(QuadraticModel, theta, model), 2))
        one = DeviceArrays(QuadraticModel, [model])
        sigma_h = float(hessian_noise_std(one, theta)[0])
        # the exact index draws of one resample per row, stacked into the
        # batch weights (role, resample, sample) of the batched estimator
        idx = np.array([[g.choice(model.size, size=batch, replace=False)
                         for _ in range(3)] for _ in range(resamples)])
        weights = np.zeros((resamples, 3, model.size))
        np.put_along_axis(weights, idx, 1.0 / batch, axis=2)
        weights = weights.transpose(1, 0, 2)
        data = one.take(np.zeros(resamples, dtype=int))
        grads = batched_meta_gradient(data, theta, weights, hyper)
        adapted = theta - alpha * data.grad(weights[0], theta)
        # the noise and gradient-norm constants must cover every iterate the
        # estimator visits, so take their suprema over the adapted points
        sigma_g = max(float(gradient_noise_std(one, theta)[0]),
                      float(gradient_noise_std(data, adapted).max()))
        zeta = max(float(np.linalg.norm(grad_estimate(QuadraticModel, theta, model))),
                   float(np.linalg.norm(data.grad(data.full_weights, adapted), axis=1).max()))
        c = SmoothnessConstants(alpha=alpha, L=L, rho=0.0, zeta=zeta,
                                sigma_G=sigma_g, sigma_H=sigma_h)
        bias = float(np.linalg.norm(grads.mean(0) - exact))
        se_bias = float(np.sqrt(
            np.mean(np.sum((grads - grads.mean(0)) ** 2, axis=1)) / resamples
        ))
        if bias > meta_gradient_bias_bound(c, batch) + 3 * se_bias:
            failures.append(f"instance {inst} bias {bias:.4f}")
        dev_sq = np.sum((grads - exact) ** 2, axis=1)
        second = float(dev_sq.mean())
        se_second = float(dev_sq.std(ddof=1) / np.sqrt(resamples))
        if second > sigma_f_squared(c, batch, batch, batch) + 3 * se_second:
            failures.append(f"instance {inst} second moment {second:.4f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report("estimator-moments", ok,
            f"bias and second moment within bounds on 5 instances x "
            f"{resamples} resamples ({elapsed:.1f}s)"
            + (f"; violations: {failures}" if failures else ""))


def test_frequency_solver_oracle():
    """Closed-form frequency solver matches grid search within 1e-6."""
    t0 = time.perf_counter()
    result = sp1_suite()
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 30.0
    _report("frequency-solver-oracle", ok,
            f"{result.failures} failures / {result.instances} instances, "
            f"max deviation {result.max_deviation:.2e} ({elapsed:.1f}s)")


def test_assignment_oracle():
    """Rectangular assignment matches exhaustive search on 500 instances."""
    t0 = time.perf_counter()
    result = assignment_suite()
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 30.0
    _report("assignment-oracle", ok,
            f"{result.failures} mismatches / {result.instances} instances "
            f"({elapsed:.1f}s)")


def test_power_bisection():
    """Power-level root finder: |f(root)| <= 1e-8 and the root within
    1e-12 relative of the reference bisection."""
    t0 = time.perf_counter()
    result = bisection_suite()
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 5.0
    _report("power-bisection", ok,
            f"{result.failures} failures / {result.instances} instances, "
            f"max |residual| {result.max_deviation:.2e} ({elapsed:.1f}s)")


def test_alternating_solver_monotonicity():
    """Alternating power/matching solver: objective non-decreasing across
    iterations on 100 environments, converging within 50 iterations on all
    and within 3 on at least 80%."""
    t0 = time.perf_counter()
    result, iterations = ives_monotone_suite()
    fast = sum(1 for c in iterations if c <= 3)
    elapsed = time.perf_counter() - t0
    ok = (result.ok and max(iterations) <= 50
          and fast >= 0.8 * len(iterations) and elapsed < 60.0)
    _report("alternating-solver-monotonicity", ok,
            f"{result.failures} monotonicity violations / {result.instances} "
            f"environments, max {max(iterations)} iterations, "
            f"{fast}/{len(iterations)} within 3 ({elapsed:.1f}s)")


def test_descent_bound():
    """One-round loss decrease dominates its analytic lower bound in >=99%
    of 1000 evaluations (noise-free full-batch quadratic populations)."""
    t0 = time.perf_counter()
    result = descent_bound_suite()
    holds, total = result.instances - result.failures, result.instances
    elapsed = time.perf_counter() - t0
    ok = holds >= 0.99 * total and elapsed < 120.0
    _report("descent-bound", ok,
            f"bound held in {holds}/{total} round evaluations ({elapsed:.1f}s)")


def test_contribution_selection_trend():
    """Contribution-weighted selection beats uniform selection: global loss
    at round 19 is lower under a one-sided paired t-test at the 5% level
    (n=100 devices, n_k=20, 50 rounds, 20 seeds)."""
    t0 = time.perf_counter()
    diffs = []
    for seed in range(20):
        base = dict(mode="nufm", rounds=50, n_k=20,
                    population=PopulationSpec(n=100, d=5),
                    hyper=MetaHyper(alpha=0.03, beta=0.02),
                    batch_size=4, seed=seed)
        nufm = run(ExperimentConfig(selection="nufm", **base))
        unif = run(ExperimentConfig(selection="uniform", **base))
        diffs.append(unif[19].train_loss - nufm[19].train_loss)
    diffs = np.asarray(diffs)
    t_stat = float(diffs.mean() / (diffs.std(ddof=1) / np.sqrt(len(diffs))))
    t_crit = float(scipy.stats.t.ppf(0.95, len(diffs) - 1))
    elapsed = time.perf_counter() - t0
    ok = t_stat > t_crit and diffs.mean() > 0 and elapsed < 300.0
    _report("contribution-selection-trend", ok,
            f"mean loss gap {diffs.mean():.4f}, t={t_stat:.2f} > "
            f"critical {t_crit:.2f} over 20 seeds ({elapsed:.1f}s)")


def test_energy_weight_sweep():
    """Raising the energy weight trades energy for time: across the weight
    sweep, mean energy is non-increasing and mean time non-decreasing with
    at most one violating adjacent pair."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        mode="wireless", rounds=5, n_k=10,
        population=PopulationSpec(n=20, d=3),
        hyper=MetaHyper(alpha=0.03, beta=0.02), batch_size=4,
        env=EnvironmentSpec(M=20,
                            nu_max_range=(0.5, 2.0), p_max_range=(0.2, 1.0)),
    )
    cells, _ = sweep(cfg, "eta1", [0.5, 1.0, 1.5, 2.0, 2.5], seeds=range(20))
    energies = [c.mean_energy for c in cells]
    times = [c.mean_time for c in cells]
    pairs = len(cells) - 1
    energy_ok = sum(energies[i + 1] <= energies[i] for i in range(pairs))
    time_ok = sum(times[i + 1] >= times[i] for i in range(pairs))
    elapsed = time.perf_counter() - t0
    ok = energy_ok >= pairs - 1 and time_ok >= pairs - 1
    _report("energy-weight-sweep", ok,
            f"energy non-increasing in {energy_ok}/{pairs} pairs "
            f"({energies[0]:.2f} -> {energies[-1]:.2f}), time non-decreasing "
            f"in {time_ok}/{pairs} pairs ({times[0]:.2f} -> {times[-1]:.2f}) "
            f"({elapsed:.1f}s)")


def test_joint_allocation_beats_random():
    """The joint allocation solver's objective dominates a random feasible
    allocation on at least 95 of 100 random instances."""
    t0 = time.perf_counter()
    wins = 0
    instances = 100
    for t in range(instances):
        g = rng.stream(4242, t)
        compute, radios, net = sample_environment(
            g, EnvironmentSpec(M=6), np.ones(8, dtype=int)
        )
        u = g.uniform(0.5, 5.0, size=8)
        sp1, sp2 = ural(solve_sp1(compute, (net.eta1, net.eta2)), Uplink(radios, net), net, u)
        alloc = Allocation(rows=sp2.rows, rbs=sp2.z, p=sp2.p)
        c1, e1, t1 = round_totals(computation(compute, sp1.nu), radios, net, alloc, u)
        obj_solver = c1 - net.eta1 * e1 - net.eta2 * t1
        n_sel = min(net.M, u.size)
        rows = np.sort(g.choice(u.size, size=n_sel, replace=False))
        rbs = g.choice(net.M, size=n_sel, replace=False)
        p = radios.p_max[rows] * g.uniform(1e-6, 1.0, size=n_sel)
        nu = compute.nu_max * g.uniform(1e-6, 1.0, size=u.size)
        alloc = Allocation(rows, rbs, p)
        c2, e2, t2 = round_totals(computation(compute, nu), radios, net, alloc, u)
        if obj_solver >= c2 - net.eta1 * e2 - net.eta2 * t2:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 95
    _report("joint-allocation-vs-random", ok,
            f"solver objective >= random on {wins}/{instances} instances "
            f"({elapsed:.1f}s)")


def test_determinism(tmp_path):
    """Reruns with the same config and seed produce byte-identical outputs."""
    t0 = time.perf_counter()
    payload = {
        "mode": "wireless", "rounds": 3, "n_k": 5, "batch_size": 3,
        "population": {"n": 12, "d": 3},
        "hyper": {"alpha": 0.03, "beta": 0.02},
        "env": {"M": 8},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    outputs = []
    for run_id in range(4):
        out = tmp_path / f"out{run_id}"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        outputs.append(
            ((out / "metrics.csv").read_bytes(), (out / "summary.json").read_bytes())
        )
    elapsed = time.perf_counter() - t0
    ok = all(o == outputs[0] for o in outputs[1:])
    _report("determinism", ok,
            f"4 runs byte-identical ({elapsed:.1f}s)")
