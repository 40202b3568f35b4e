import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment   # test-only reference

import fmlsim.ural as ural_module
from fmlsim import rng
from fmlsim.errors import InvalidInputError
from fmlsim.oracles import (
    _random_compute,
    _random_radio_env,
    assignment_brute_force,
    f4_bisection,
    g1_grid_minimum,
)
from fmlsim.ural import (
    IVES_EPS,
    IVES_MAX_ITERS,
    Sp2Solution,
    Uplink,
    _certified,
    f4_zero,
    g1_objective,
    g2_objective,
    initial_delay,
    ives,
    min_cost_assignment,
    rb_matching,
    solve_sp1,
    solve_sp2_power,
    ural,
)
from fmlsim.wireless import (
    Allocation,
    ComputeProfile,
    NetworkConfig,
    RadioProfile,
    computation,
    round_totals,
)


def _unit_device():
    return ComputeProfile(c=[1.0], iota=[2.0], D=[1], nu_max=[2.0])


def _g1(compute, weights, nu):
    """g1 of per-row frequencies."""
    return g1_objective(compute.work, compute.iota, np.asarray(nu, dtype=float), weights)


def test_g1_unit_substitution():
    assert _g1(_unit_device(), (1.0, 1.0), [1.0]) == pytest.approx(2.0)


def test_g1_homogeneity_of_terms():
    compute = _unit_device()
    base_e = _g1(compute, (1.0, 0.0), [1.0])
    base_t = _g1(compute, (0.0, 1.0), [1.0])
    t = 1.7
    assert _g1(compute, (1.0, 0.0), [t]) == pytest.approx(base_e * t * t)
    assert _g1(compute, (0.0, 1.0), [t]) == pytest.approx(base_t / t)


def test_g1_matches_direct_recomputation():
    g = rng.stream(99)
    compute = _random_compute(g, 3)
    nu = [float(g.uniform(0.1, cap)) for cap in compute.nu_max]
    eta1, eta2 = 1.3, 0.7
    rows = range(3)
    expect = eta1 * sum(
        0.5 * compute.iota[i] * compute.c[i] * compute.D[i] * nu[i] ** 2 for i in rows
    ) + eta2 * max(compute.c[i] * compute.D[i] / nu[i] for i in rows)
    assert _g1(compute, (eta1, eta2), nu) == pytest.approx(expect)


def test_sp1_single_device_closed_form():
    sol = solve_sp1(_unit_device(), (1.0, 1.0))
    # g1 = nu^2 + 1/nu: optimum at (1/2)^(1/3), below the cap of 2
    assert sol.nu[0] == pytest.approx(0.5 ** (1.0 / 3.0))


def test_sp1_homogeneous_devices_get_equal_frequencies():
    compute = ComputeProfile(c=[1.0] * 4, iota=[2.0] * 4, D=[2] * 4, nu_max=[1.5] * 4)
    sol = solve_sp1(compute, (1.0, 1.0))
    assert sol.nu.shape == (4,)
    assert sol.nu.max() - sol.nu.min() < 1e-12


def test_sp1_weights_too_far_apart_hit_the_cap_silently():
    # eta2 / (eta1 * sum iota w^3) overflows to +inf, so every row runs at its cap's speed
    compute = _random_compute(rng.stream(98), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nu = solve_sp1(compute, (5e-324, 1.0)).nu
    assert nu.tobytes() == ((compute.nu_max / compute.work).min() * compute.work).tobytes()


def test_sp1_cap_binds_for_tiny_nu_max():
    compute = ComputeProfile(c=[1.0, 1.0], iota=[2.0, 2.0], D=[1, 1], nu_max=[0.05, 2.0])
    sol = solve_sp1(compute, (1.0, 1.0))
    assert sol.nu[0] == pytest.approx(0.05)
    assert sol.objective == pytest.approx(g1_grid_minimum(compute, (1.0, 1.0)), abs=1e-6)


def test_sp1_equalizes_computation_times():
    g = rng.stream(100)
    compute = _random_compute(g, 3)
    sol = solve_sp1(compute, (1.0, 1.0))
    times = compute.c * compute.D / sol.nu
    assert times.max() - times.min() < 1e-9
    assert ((0 < sol.nu) & (sol.nu <= compute.nu_max * (1 + 1e-12))).all()


def test_sp1_matches_grid_oracle():
    for r in range(10):
        g = rng.stream(101, r)
        n = int(g.integers(1, 4))
        compute = _random_compute(g, n)
        weights = (float(g.uniform(0.5, 2.0)), float(g.uniform(0.5, 2.0)))
        sol = solve_sp1(compute, weights)
        assert sol.objective == pytest.approx(
            g1_grid_minimum(compute, weights), abs=1e-6
        )


def test_assignment_single_edge():
    assert min_cost_assignment(np.array([[-2.0]])) == [(0, 0)]


def test_assignment_all_forbidden_or_nonnegative():
    assert min_cost_assignment(np.full((2, 2), np.inf)) == []
    assert min_cost_assignment(np.array([[1.0, 2.0]])) == []


def test_assignment_matches_brute_force():
    g = rng.stream(102)
    for _ in range(100):
        w = g.uniform(-5, 5, size=(6, 6))
        w[g.uniform(size=(6, 6)) < 0.25] = np.inf
        got = sum(w[i, j] for i, j in min_cost_assignment(w))
        assert got == pytest.approx(assignment_brute_force(w), abs=1e-9)


def _two_device_env():
    radios = RadioProfile(h=[0.9, 0.5], p_max=[1.0, 0.8])
    net = NetworkConfig(M=2, B=1.0, N0=0.1, interference=(0.1, 0.3), S=1.0)
    return radios, net


def _matching(u, delta, radios, net):
    """rb_matching as a dict row -> RB."""
    rows, rbs = rb_matching(np.asarray(u, dtype=float), Uplink(radios, net), delta)
    return dict(zip(rows.tolist(), rbs.tolist()))


def _pairs(z):
    """An assignment dict row -> RB as the (rows, rbs) index arrays."""
    return np.array(list(z), dtype=int), np.array(list(z.values()), dtype=int)


def test_rb_matching_all_pairs_infeasible():
    radios = RadioProfile(h=[0.9], p_max=[1e-5])
    net = NetworkConfig(M=1, B=1.0, N0=0.1, interference=(0.5,), S=1.0)
    assert _matching([5.0], 0.5, radios, net) == {}


def test_rb_matching_mu_formula():
    # S/(B*delta) = 1 makes the required power (I + B*N0)/h
    radios, net = _two_device_env()
    delta = net.S / net.B
    z = _matching([100.0, 100.0], delta, radios, net)
    assert set(z) == {0, 1}


def test_rb_matching_matches_exhaustive_search():
    g = rng.stream(103)
    for _ in range(30):
        n, m = 4, 3
        radios, net = _random_radio_env(g, n, m)
        u = [float(g.uniform(0.1, 4.0)) for _ in range(n)]
        delta = float(g.uniform(0.5, 4.0))
        z = _matching(u, delta, radios, net)

        def gain(i, mm):
            noise = net.interference[mm] + net.B * net.N0
            mu = noise * (2 ** (net.S / (net.B * delta)) - 1) / radios.h[i]
            if mu > radios.p_max[i]:
                return -math.inf
            return u[i] - net.eta1 * delta * mu
        # exhaustive: all injective partial maps of devices to RBs
        def best(i, used):
            if i == n:
                return 0.0
            skip = best(i + 1, used)
            take = max(
                (gain(i, mm) + best(i + 1, used | {mm})
                 for mm in range(m) if mm not in used and gain(i, mm) > 0),
                default=-math.inf,
            )
            return max(skip, take)

        got = sum(gain(i, mm) for i, mm in z.items())
        assert got == pytest.approx(best(0, set()), abs=1e-9)


def test_f4_zero_equals_e_minus_one_when_coefficients_match():
    for b in (0.1, 1.0, 7.3):
        assert f4_zero(b, b) == pytest.approx(math.e - 1.0, abs=1e-8)


def test_f4_root_shrinks_as_b1_grows():
    assert f4_zero(100.0, 1.0) < 0.2
    assert f4_zero(0.01, 1.0) > f4_zero(1.0, 1.0)


def test_f4_bracketing_contract():
    g = rng.stream(104)
    for _ in range(50):
        b1 = float(g.uniform(0.05, 50.0))
        eta2 = float(g.uniform(0.05, 50.0))
        root = f4_zero(b1, eta2)

        def f4(p):
            return b1 * ((1 + p) * math.log1p(p) - p) - eta2

        assert f4(root - 1e-6) < 0 < f4(root + 1e-6)


def test_f4_invalid_inputs():
    with pytest.raises(InvalidInputError):
        f4_zero(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        f4_zero(1.0, -1.0)


def test_sp2_power_single_device_composition():
    radios = RadioProfile(h=[0.9], p_max=[5.0])
    # b1 = eta1 * noise/h; choose eta2 = b1 so the f4 zero is e-1
    noise = (0.0 + 1.0 * 0.1) / radios.h[0]
    net = NetworkConfig(M=1, B=1.0, N0=0.1, interference=(0.0,), S=1.0,
                        eta1=1.0, eta2=noise)
    (p,) = solve_sp2_power(radios, *_pairs({0: 0}), net)
    expect = min(math.e - 1.0, radios.p_max[0] / noise) * noise
    assert p == pytest.approx(expect, abs=1e-7)


def test_sp2_powers_equalize_rates():
    g = rng.stream(105)
    radios, net = _random_radio_env(g, 4, 4)
    z = {0: 0, 1: 1, 2: 2, 3: 3}
    p = solve_sp2_power(radios, *_pairs(z), net)
    rates = [
        net.B * np.log2(1 + radios.h[i] * p[i] / (net.interference[m] + net.B * net.N0))
        for i, m in z.items()
    ]
    assert max(rates) - min(rates) < 1e-9
    for i in z:
        assert 0 < p[i] <= radios.p_max[i] * (1 + 1e-12)


def test_sp2_power_matches_dense_sweep():
    g = rng.stream(106)
    radios, net = _random_radio_env(g, 3, 3)
    z = {0: 0, 1: 1, 2: 2}
    u = np.full(3, 5.0)
    rows, rbs = _pairs(z)
    p = solve_sp2_power(radios, rows, rbs, net)
    best = g2_objective(u, radios, rows, rbs, p, net)
    noise = np.array([(net.interference[m] + net.B * net.N0) / radios.h[i]
                      for i, m in z.items()])
    cap = min(radios.p_max[i] / noise[i] for i in z)
    for pt in np.linspace(1e-4, cap, 4000):
        assert g2_objective(u, radios, rows, rbs, noise * pt, net) <= best + 1e-6


def test_g2_empty_assignment_is_zero():
    radios, net = _two_device_env()
    rows, rbs = _pairs({})
    assert g2_objective(np.ones(2), radios, rows, rbs, np.zeros(0), net) == 0.0


def test_g2_single_device_reduction():
    radios, net = _two_device_env()
    rows, rbs = _pairs({0: 1})
    rate = net.B * np.log2(1 + radios.h[0] * 0.5 / (net.interference[1] + net.B * net.N0))
    t = net.S / rate
    assert g2_objective(np.array([4.0, 1.0]), radios, rows, rbs, np.array([0.5]), net) \
        == pytest.approx(4.0 - net.eta1 * t * 0.5 - net.eta2 * t)


def test_ives_unprofitable_devices_give_empty_allocation():
    radios = RadioProfile(h=[0.9], p_max=[1.0])
    net = NetworkConfig(M=1, B=1.0, N0=0.1, interference=(0.5,), S=1.0,
                        eta1=100.0, eta2=1.0)
    sol = ives(np.array([1e-6]), Uplink(radios, net))
    assert sol.rows.size == sol.z.size == sol.p.size == 0 and sol.objective == 0.0
    assert sol.iterations == 1


def test_ives_trace_non_decreasing():
    g = rng.stream(107)
    for _ in range(30):
        n = int(g.integers(2, 10))
        m = int(g.integers(1, 10))
        radios, net = _random_radio_env(g, n, m)
        u = np.array([g.uniform(0.1, 5.0) for _ in range(n)])
        sol = ives(u, Uplink(radios, net))
        for a, b in zip(sol.trace, sol.trace[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a))
        assert len(sol.trace) <= 50


def test_ives_requires_positive_scores():
    radios, net = _two_device_env()
    with pytest.raises(InvalidInputError):
        ives(np.array([-1.0, 2.0]), Uplink(radios, net))
    with pytest.raises(InvalidInputError, match="one score per device row"):
        ives(np.array([1.0, 2.0, 3.0]), Uplink(radios, net))


def test_initial_delay_covers_all_pairs():
    g = rng.stream(108)
    radios, net = _random_radio_env(g, 5, 4)
    d0 = initial_delay(radios, net)
    for i in range(5):
        for m in range(net.M):
            rate = net.B * np.log2(
                1 + radios.h[i] * radios.p_max[i] / (net.interference[m] + net.B * net.N0)
            )
            assert net.S / rate <= d0 + 1e-12


def test_ural_combines_subproblems():
    g = rng.stream(109)
    compute = _random_compute(g, 5)
    radios, net = _random_radio_env(g, 5, 5)
    u = np.array([g.uniform(0.5, 3.0) for _ in range(5)])
    sp1 = solve_sp1(compute, (net.eta1, net.eta2))
    got, sp2 = ural(sp1, Uplink(radios, net), net, u)
    assert got is sp1
    assert _same(sp2, ives(u, Uplink(radios, net)))


# ---------------------------------------------------------------------------
# properties


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _rows_of(draw, n, lo, hi):
    return draw(st.lists(_floats(lo, hi), min_size=n, max_size=n))


@st.composite
def _computes(draw, max_n=8):
    """Compute profiles of 1 to max_n device rows."""
    n = draw(st.integers(1, max_n))
    return ComputeProfile(c=_rows_of(draw, n, 0.1, 10.0), iota=_rows_of(draw, n, 0.1, 10.0),
                          D=draw(st.lists(st.integers(1, 20), min_size=n, max_size=n)),
                          nu_max=_rows_of(draw, n, 1e-3, 10.0))


_weights = st.tuples(_floats(0.01, 100.0), _floats(0.01, 100.0))


@st.composite
def _uplink_envs(draw, max_n=8, max_m=8):
    """Scores, radios and a network for 1 to max_n device rows."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    radios = RadioProfile(h=_rows_of(draw, n, 0.05, 1.0), p_max=_rows_of(draw, n, 0.01, 2.0))
    u = np.array(_rows_of(draw, n, 0.01, 5.0))
    net = NetworkConfig(
        M=m, B=1.0, N0=0.1, S=1.0,
        interference=tuple(draw(st.lists(_floats(0.0, 0.8), min_size=m, max_size=m))),
        eta1=draw(_floats(0.1, 3.0)), eta2=draw(_floats(0.1, 3.0)),
    )
    return u, radios, net


@given(compute=_computes(), weights=_weights)
def test_sp1_frequencies_feasible_with_equal_times(compute, weights):
    nu = solve_sp1(compute, weights).nu
    assert nu.shape == compute.c.shape
    assert (nu > 0).all() and (nu <= compute.nu_max * (1 + 1e-12)).all()
    times = compute.work / nu
    assert times.max() - times.min() <= 1e-12 * times.max()


@given(compute=_computes(), weights=_weights, stretch=_floats(0.0, 100.0))
def test_sp1_no_worse_than_any_common_completion_time(compute, weights, stretch):
    sol = solve_sp1(compute, weights)
    work = compute.work
    t = (work / compute.nu_max).max() * (1.0 + stretch)  # feasible: no device above nu_max
    assert sol.objective <= g1_objective(work, compute.iota, work / t, weights) * (1 + 1e-12)


@given(env=_uplink_envs(), data=st.data())
def test_sp2_powers_within_cap_with_equal_rates(env, data):
    u, radios, net = env
    n = min(u.size, net.M)
    rows = np.array(data.draw(st.permutations(range(u.size)))[:n], dtype=int)
    rbs = np.array(data.draw(st.permutations(range(net.M)))[:n], dtype=int)
    p = solve_sp2_power(radios, rows, rbs, net)
    assert (p > 0).all() and (p <= radios.p_max[rows] * (1 + 1e-12)).all()
    rates = [net.B * math.log2(1 + radios.h[r] * pk / (net.interference[m] + net.B * net.N0))
             for r, m, pk in zip(rows, rbs, p)]
    assert max(rates) - min(rates) <= 1e-9 * max(rates)


@given(env=_uplink_envs(max_n=6, max_m=6), delta=_floats(0.05, 10.0))
def test_rb_matching_total_equals_brute_force(env, delta):
    u, radios, net = env
    cost = np.full((u.size, net.M), math.inf)
    for row in range(u.size):
        for m in range(net.M):
            noise = net.interference[m] + net.B * net.N0
            mu = noise * (2.0 ** (net.S / (net.B * delta)) - 1.0) / radios.h[row]
            if mu <= radios.p_max[row] * (1.0 + 1e-9):
                gain = u[row] - net.eta1 * delta * min(mu, radios.p_max[row])
                if gain > 0:
                    cost[row, m] = -gain
    rows, rbs = rb_matching(u, Uplink(radios, net), delta)
    assert len(set(rbs.tolist())) == len(rbs)
    got = sum(cost[r, m] for r, m in zip(rows, rbs))
    assert got == pytest.approx(assignment_brute_force(cost), abs=1e-9)


def _gains(u, radios, delta, net):
    """The RB matching's gain matrix, as the library defines it, and its usable pairs."""
    mu = net.noise * (np.exp2(net.S / (net.B * delta)) - 1.0) / radios.h[:, None]
    cap = radios.p_max[:, None]
    gain = u[:, None] - net.eta1 * delta * np.minimum(mu, cap)
    return gain, (mu <= cap * (1.0 + 1e-9)) & (gain > 0)


def _upload_time(radios, net, row, rb):
    """Row ``row``'s full-power upload time on RB ``rb``: that pair is then at its cap."""
    return net.S / float(net.rate(radios.h[row], radios.p_max[row], rb))


def _distinct_interference(draw, m):
    """m interference levels in [0, 0.8] whose noise levels I + B*N0 all differ."""
    return tuple(k / 100.0 for k in draw(st.lists(st.integers(0, 80), min_size=m, max_size=m,
                                                  unique=True)))


@st.composite
def _distinct_uplinks(draw, max_n=30, max_m=30):
    """Scores, radios, a network and a delay; no two rows share h, no two RBs their noise.

    Distinct gains and noises keep exact ties between matchings out (with a
    tie, any optimal matching is right, and the solvers may pick different
    ones).  The channel gains h lie on a 1e-3 grid: two that differ only in
    their last bits give equal powers once rounded, and so a tie.  Half the
    delays are a full-power upload time, which puts one pair at its power
    cap, in the cap-slack band.
    """
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    h = [k / 1000.0 for k in draw(st.lists(st.integers(50, 1000), min_size=n, max_size=n,
                                           unique=True))]
    radios = RadioProfile(h=h, p_max=_rows_of(draw, n, 0.01, 2.0))
    u = np.array(_rows_of(draw, n, 0.01, 5.0))
    net = NetworkConfig(
        M=m, B=1.0, N0=0.1, S=1.0,
        interference=_distinct_interference(draw, m),
        eta1=draw(_floats(0.1, 3.0)), eta2=1.0,
    )
    if draw(st.booleans()):
        delta = _upload_time(radios, net, draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)))
    else:
        delta = draw(_floats(0.05, 10.0))
    return u, radios, delta, net


@given(env=_distinct_uplinks())
def test_rb_matching_pairs_equal_linear_sum_assignment(env):
    u, radios, delta, net = env
    gain, usable = _gains(u, radios, delta, net)
    rows, rbs = linear_sum_assignment(np.where(usable, -gain, 0.0))
    keep = usable[rows, rbs]
    got = rb_matching(u, Uplink(radios, net), delta)
    assert got[0].tolist() == rows[keep].tolist()
    assert got[1].tolist() == rbs[keep].tolist()


@st.composite
def _planted_uplinks(draw):
    """Rows that fit every RB, plus the highest-h row, whose cap admits only the quietest RB.

    With no more rows than RBs every row is matched in the optimum, the
    planted row on the quietest RB; a matching that gives the RBs to rows
    in ascending h cannot do that, so the dynamic program alone is wrong.
    """
    n = draw(st.integers(2, 7))
    m = draw(st.integers(n, 7))
    # h >= 0.3 keeps every other row's power below its cap of 2 on every RB
    h = draw(st.lists(_floats(0.3, 0.5), min_size=n - 1, max_size=n - 1, unique=True)) + [1.0]
    net = NetworkConfig(
        M=m, B=1.0, N0=0.1, S=1.0,
        interference=_distinct_interference(draw, m),
        eta1=0.1, eta2=1.0,
    )
    delta = 2.0
    quiet, next_quiet = np.sort(net.noise)[:2] * (np.exp2(net.S / (net.B * delta)) - 1.0)
    u = np.array(_rows_of(draw, n - 1, 2.0, 5.0) + [10.0])
    radios = RadioProfile(h=h, p_max=[2.0] * (n - 1) + [0.5 * (quiet + next_quiet)])
    return u, radios, delta, net


@given(env=_planted_uplinks())
def test_rb_matching_falls_back_when_the_dynamic_program_is_wrong(env):
    u, radios, delta, net = env
    calls = []
    solve = ural_module.min_cost_assignment
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ural_module, "min_cost_assignment",
                      lambda weights: calls.append(weights) or solve(weights))
        rows, rbs = rb_matching(u, Uplink(radios, net), delta)
    assert calls
    gain, usable = _gains(u, radios, delta, net)
    cost = np.where(usable, -gain, np.inf)
    assert rows.size == u.size and net.noise[rbs[-1]] == net.noise.min()
    assert cost[rows, rbs].sum() == pytest.approx(assignment_brute_force(cost), abs=1e-9)


@given(h=_floats(0.3, 1.0), cap=_floats(0.2, 1.0), quiet=st.integers(0, 30),
       louder=st.integers(1, 50), score=_floats(2.0, 5.0))
def test_rb_matching_takes_the_cap_slack_band_bonus_out_of_order(h, cap, quiet, louder, score):
    # Two rows of equal h on two RBs; the delay puts row 0's pair on the
    # louder RB 5e-10 into the cap-slack band, where it pays only its cap.
    # The in-order matching (row 0 on the quieter RB) and the crossed one
    # cost the same but for that bonus, so the crossed one is the optimum.
    net = NetworkConfig(M=2, B=1.0, N0=0.1, S=1.0, eta1=1.0, eta2=1.0,
                        interference=(quiet / 100.0, (quiet + louder) / 100.0))
    radios = RadioProfile(h=[h, h], p_max=[cap, 10.0])
    growth = cap * (1.0 + 5e-10) * h / net.noise[1]
    delta = net.S / (net.B * math.log2(1.0 + growth))
    u = np.array([score, score])
    gain, usable = _gains(u, radios, delta, net)
    assert usable.all() and gain[0, 1] + gain[1, 0] > gain[0, 0] + gain[1, 1]
    rows, rbs = rb_matching(u, Uplink(radios, net), delta)
    assert rows.tolist() == [0, 1] and rbs.tolist() == [1, 0]


@given(seed=st.integers(0, 2**32 - 1))
def test_certificate_accepts_the_optimum_and_rejects_worse(seed):
    # continuous draws from the seed: ties between matchings have probability 0
    g = rng.stream(seed)
    n, cols = int(g.integers(2, 8)), int(g.integers(2, 8))
    value = g.uniform(0.1, 5.0, size=(n, cols))
    value[g.uniform(size=(n, cols)) < 0.3] = -np.inf
    assume(np.isfinite(value).any())
    rows, columns = linear_sum_assignment(np.where(np.isfinite(value), -value, 0.0))
    pairs = [(i, m) for i, m in zip(rows, columns) if np.isfinite(value[i, m])]
    # matched columns first, in matching order, so row matched[q] is on column q
    used = [m for _, m in pairs]
    order = used + [m for m in range(cols) if m not in used]
    value, matched = value[:, order], [i for i, _ in pairs]
    assert _certified(value, matched)
    assert not _certified(value, matched[:-1])           # one row dropped
    if len(matched) >= 2 and np.isfinite(value[matched[1], 0]) and np.isfinite(value[matched[0], 1]):
        swapped = [matched[1], matched[0]] + matched[2:]
        assert not _certified(value, swapped)


@given(b1=_floats(0.01, 100.0), log_ratio=st.floats(-12.0, 307.0))
def test_f4_zero_stays_inside_its_bracket(b1, log_ratio):
    # eta2/b1 from 1e-12 to 1e307, as far as eta2 stays finite
    eta2 = b1 * 10.0 ** log_ratio
    assume(math.isfinite(eta2))
    root = f4_zero(b1, eta2)

    def f4(p):
        return b1 * ((1 + p) * math.log1p(p) - p) - eta2

    # the zero lies below e^2 - 1 when eta2/b1 < e^2 + 1, else below eta2/b1
    assert 0.0 < root <= max(eta2 / b1, math.e ** 2)
    step = 1e-6 * max(1.0, root)
    assert f4(root - step) < 0 < f4(root + step)
    # below eta2/b1 = 1e-4 the reference's own f4 evaluation limits its accuracy
    reference = f4_bisection(b1, eta2)
    assert abs(root - reference) <= (1e-12 if eta2 / b1 >= 1e-4 else 1e-9) * reference


def test_f4_zero_at_extreme_ratios():
    # eta2/b1 overflows: the root is +inf, and solve_sp2_power's cap sets the power
    assert f4_zero(5e-324, 1.0) == math.inf
    # eta2/b1 = 1e307: a Newton step written in e^y would overflow to NaN here
    root = f4_zero(1e-307, 1.0)
    assert math.isfinite(root)
    assert abs(root - f4_bisection(1e-307, 1.0)) <= 1e-12 * root
    # eta2/b1 underflows to 0, where the Newton start would be 0
    assert f4_zero(1e300, 1e-300) == 0.0


@given(env=_uplink_envs(max_n=12, max_m=12))
def test_ives_trace_never_decreases(env):
    u, radios, net = env
    sol = ives(u, Uplink(radios, net))
    for a, b in zip(sol.trace, sol.trace[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))
    assert sol.iterations == len(sol.trace) <= 50
    assert sol.rows.shape == sol.z.shape == sol.p.shape
    assert (np.diff(sol.rows) > 0).all() and set(sol.rows.tolist()) <= set(range(u.size))
    assert len(set(sol.z.tolist())) == sol.z.size
    assert ((0 < sol.p) & (sol.p <= radios.p_max[sol.rows] * (1 + 1e-12))).all()


# ---------------------------------------------------------------------------
# IVES against its first form, and the per-run state


def _ives_reference(u, radios, net):
    """IVES as first written: every iteration prices its matching, even a repeated one.

    A test-only reference.  Each call hands ``rb_matching`` a fresh
    ``Uplink``, so no per-run state carries over between its calls.
    """
    delta = initial_delay(radios, net)
    empty = np.zeros(0, dtype=int)
    best_g2, best = 0.0, (empty, empty, np.zeros(0), delta)
    trace = []
    for _ in range(IVES_MAX_ITERS):
        rows, rbs = rb_matching(u, Uplink(radios, net), delta)
        if not rows.size:
            trace.append(0.0)
            break
        p = solve_sp2_power(radios, rows, rbs, net)
        rates = net.rate(radios.h[rows], p, rbs)
        g2 = g2_objective(u, radios, rows, rbs, p, net, rates)
        trace.append(g2)
        delta_next = float((net.S / rates).max())
        if g2 > best_g2:
            best_g2, best = g2, (rows, rbs, p, delta_next)
        if len(trace) > 1 and abs(g2 - trace[-2]) <= IVES_EPS * max(1.0, abs(g2)):
            break
        delta = delta_next
    rows, rbs, p, delta = best
    return Sp2Solution(rows=rows, z=rbs, p=p, delta=delta, objective=best_g2,
                       iterations=len(trace), trace=trace)


def _bits(value):
    """A value's exact bits: arrays with their dtype and shape, floats by repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return repr(value)


def _same(a, b):
    """Whether two solution dataclasses agree bit for bit in every field."""
    return all(_bits(getattr(a, f.name)) == _bits(getattr(b, f.name))
               for f in dataclasses.fields(a))


@st.composite
def _ives_envs(draw):
    """``_uplink_envs`` instances; a third get an eta2 whose f4 root is too small for the rate.

    There g2 is -inf, the next delay inf, and the loop takes the non-finite path.
    """
    u, radios, net = draw(_uplink_envs(max_n=10, max_m=12))
    if draw(st.integers(0, 2)) == 0:
        net = dataclasses.replace(net, eta2=draw(st.sampled_from([1e-32, 1e-40, 1e-300])))
    return u, radios, net


@given(env=_ives_envs())
def test_ives_equals_its_first_form_bit_for_bit(env):
    u, radios, net = env
    with np.errstate(divide="ignore", invalid="ignore"):
        got, want = ives(u, Uplink(radios, net)), _ives_reference(u, radios, net)
    assert _same(got, want)


def test_ives_non_finite_g2_keeps_the_repricing_path():
    radios = RadioProfile(h=[0.9, 0.5, 0.7], p_max=[1.0, 0.8, 0.6])
    net = NetworkConfig(M=3, B=1.0, N0=0.1, interference=(0.1, 0.3, 0.2), S=1.0, eta2=1e-40)
    u = np.array([3.0, 2.0, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        sol, want = ives(u, Uplink(radios, net)), _ives_reference(u, radios, net)
    assert sol.trace == [-math.inf, 0.0] and sol.rows.size == 0
    assert _same(sol, want)
    # at a finite delay: eta2 * upload time overflows, the same matching returns,
    # and -inf - -inf is no zero change, so the loop runs to its cap
    radios = RadioProfile(h=[0.9, 0.5], p_max=[1.0, 0.8])
    net = NetworkConfig(M=2, B=1e-300, N0=0.1, interference=(0.1, 0.3), S=1.0,
                        eta1=1e-305, eta2=1e10)
    u = np.array([3.0, 2.0])
    with np.errstate(over="ignore"):
        sol, want = ives(u, Uplink(radios, net)), _ives_reference(u, radios, net)
    assert sol.trace == [-math.inf] * IVES_MAX_ITERS and math.isfinite(sol.delta)
    assert _same(sol, want)


def test_ives_prices_a_repeated_matching_once(monkeypatch):
    # the same matching twice in a row ends the loop without new powers
    g = rng.stream(111)
    envs = []
    for _ in range(20):
        n, m = int(g.integers(2, 10)), int(g.integers(1, 10))
        radios, net = _random_radio_env(g, n, m)
        envs.append((g.uniform(0.1, 5.0, size=n), radios, net))
    priced, matched = [], 0
    monkeypatch.setattr(ural_module, "solve_sp2_power",
                        lambda *a: priced.append(1) or solve_sp2_power(*a))
    for u, radios, net in envs:
        sol = ives(u, Uplink(radios, net))
        assert _same(sol, _ives_reference(u, radios, net))
        # the first form priced every non-empty matching, a trailing 0.0 marks an empty one
        matched += sol.iterations - (sol.trace[-1] == 0.0)
    assert len(priced) < matched


def _copies(compute, radios, net):
    """An environment's equal copies, new objects that share no per-run state with it."""
    return (ComputeProfile(c=compute.c, iota=compute.iota, D=compute.D, nu_max=compute.nu_max),
            RadioProfile(h=radios.h, p_max=radios.p_max), dataclasses.replace(net))


def test_per_run_state_never_crosses_environments():
    g = rng.stream(112)
    compute_a, compute_b = _random_compute(g, 6), _random_compute(g, 6)
    radios_a, net_a = _random_radio_env(g, 6, 5)
    radios_b, net_c = _random_radio_env(g, 6, 5)
    envs = [
        (compute_a, radios_a, net_a),
        (compute_b, radios_b, net_a),                           # the same network object
        (compute_b, radios_b, dataclasses.replace(net_a)),      # an equal network
        (compute_a, radios_b, net_c),                           # another network
        (compute_a, radios_a, dataclasses.replace(net_a, eta1=net_a.eta1 * 2)),
    ]
    scores = [g.uniform(0.1, 4.0, size=6) for _ in range(3)]
    uplinks = [Uplink(radios, net) for _, radios, net in envs]     # one per run, kept

    def solve(compute, radios, net, uplink, u, tau):
        sp1, sp2 = ural(solve_sp1(compute, (net.eta1, net.eta2)), uplink, net, u)
        alloc = Allocation(rows=sp2.rows, rbs=sp2.z, p=sp2.p)
        totals = round_totals(computation(compute, sp1.nu, tau), radios, net, alloc, u)
        return sp1, sp2, ives(u, uplink), totals

    def solve_fresh(compute, radios, net, u, tau):
        compute, radios, net = _copies(compute, radios, net)
        return solve(compute, radios, net, Uplink(radios, net), u, tau)

    # each environment alone, on fresh copies, then all of them interleaved on their kept uplinks
    fresh = {(e, k, tau): solve_fresh(*env, u, tau)
             for e, env in enumerate(envs) for k, u in enumerate(scores) for tau in (1, 2)}
    for k, u in enumerate(scores):
        for tau in (1, 2):
            for e, env in [*enumerate(envs), *reversed(list(enumerate(envs)))]:
                sp1, sp2, sp2_alone, totals = solve(*env, uplinks[e], u, tau)
                want = fresh[e, k, tau]
                assert _same(sp1, want[0]) and _same(sp2, want[1]) and _same(sp2_alone, want[2])
                assert _bits(list(totals)) == _bits(list(want[3]))
