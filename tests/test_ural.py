import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmlsim import rng
from fmlsim.errors import InvalidInputError
from fmlsim.oracles import (
    _random_compute,
    _random_radio_env,
    assignment_brute_force,
    g1_grid_minimum,
)
from fmlsim.ural import (
    Uplinks,
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
from fmlsim.wireless import ComputeProfile, NetworkConfig, RadioProfile


def _unit_device():
    return {0: ComputeProfile(c=1.0, iota=2.0, D=1, nu_max=2.0)}


def _compute_arrays(compute):
    """Device ids in ascending order with their work c*D, iota and nu_max."""
    ids = sorted(compute)
    work = np.array([compute[i].c * compute[i].D for i in ids], dtype=float)
    iota = np.array([compute[i].iota for i in ids])
    nu_max = np.array([compute[i].nu_max for i in ids])
    return ids, work, iota, nu_max


def _g1(compute, weights, nu):
    """g1 of per-device frequencies given as a dict."""
    ids, work, iota, _ = _compute_arrays(compute)
    return g1_objective(work, iota, np.array([nu[i] for i in ids]), weights)


def test_g1_unit_substitution():
    assert _g1(_unit_device(), (1.0, 1.0), {0: 1.0}) == pytest.approx(2.0)


def test_g1_homogeneity_of_terms():
    compute = _unit_device()
    base_e = _g1(compute, (1.0, 0.0), {0: 1.0})
    base_t = _g1(compute, (0.0, 1.0), {0: 1.0})
    t = 1.7
    assert _g1(compute, (1.0, 0.0), {0: t}) == pytest.approx(base_e * t * t)
    assert _g1(compute, (0.0, 1.0), {0: t}) == pytest.approx(base_t / t)


def test_g1_matches_direct_recomputation():
    g = rng.stream(99)
    compute = _random_compute(g, 3)
    nu = {i: float(g.uniform(0.1, compute[i].nu_max)) for i in compute}
    eta1, eta2 = 1.3, 0.7
    expect = eta1 * sum(
        0.5 * cp.iota * cp.c * cp.D * nu[i] ** 2 for i, cp in compute.items()
    ) + eta2 * max(cp.c * cp.D / nu[i] for i, cp in compute.items())
    assert _g1(compute, (eta1, eta2), nu) == pytest.approx(expect)


def test_sp1_single_device_closed_form():
    sol = solve_sp1(_unit_device(), (1.0, 1.0))
    # g1 = nu^2 + 1/nu: optimum at (1/2)^(1/3), below the cap of 2
    assert sol.nu[0] == pytest.approx(0.5 ** (1.0 / 3.0))


def test_sp1_homogeneous_devices_get_equal_frequencies():
    cp = ComputeProfile(c=1.0, iota=2.0, D=2, nu_max=1.5)
    compute = {i: cp for i in range(4)}
    sol = solve_sp1(compute, (1.0, 1.0))
    vals = list(sol.nu.values())
    assert max(vals) - min(vals) < 1e-12


def test_sp1_cap_binds_for_tiny_nu_max():
    compute = {
        0: ComputeProfile(c=1.0, iota=2.0, D=1, nu_max=0.05),
        1: ComputeProfile(c=1.0, iota=2.0, D=1, nu_max=2.0),
    }
    sol = solve_sp1(compute, (1.0, 1.0))
    assert sol.nu[0] == pytest.approx(0.05)
    assert sol.objective == pytest.approx(g1_grid_minimum(compute, (1.0, 1.0)), abs=1e-6)


def test_sp1_equalizes_computation_times():
    g = rng.stream(100)
    compute = _random_compute(g, 3)
    sol = solve_sp1(compute, (1.0, 1.0))
    times = [cp.c * cp.D / sol.nu[i] for i, cp in compute.items()]
    assert max(times) - min(times) < 1e-9
    for i, cp in compute.items():
        assert 0 < sol.nu[i] <= cp.nu_max * (1 + 1e-12)


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
    radios = {0: RadioProfile(h=0.9, p_max=1.0), 1: RadioProfile(h=0.5, p_max=0.8)}
    net = NetworkConfig(M=2, B=1.0, N0=0.1, interference=(0.1, 0.3), S=1.0)
    return radios, net


def _matching(u, delta, radios, net):
    """rb_matching as a dict device id -> RB."""
    links = Uplinks.build(u, radios, net)
    rows, rbs = rb_matching(links, delta, net)
    return dict(zip(links.ids[rows].tolist(), rbs.tolist()))


def _pairs(z, u, radios, net):
    """An assignment dict as Uplinks plus the (rows, rbs) index arrays."""
    links = Uplinks.build(u, radios, net)
    ids = links.ids.tolist()
    rows = np.array([ids.index(i) for i in z], dtype=int)
    return links, rows, np.array(list(z.values()), dtype=int)


def test_rb_matching_all_pairs_infeasible():
    radios = {0: RadioProfile(h=0.9, p_max=1e-5)}
    net = NetworkConfig(M=1, B=1.0, N0=0.1, interference=(0.5,), S=1.0)
    assert _matching({0: 5.0}, 0.5, radios, net) == {}


def test_rb_matching_mu_formula():
    # S/(B*delta) = 1 makes the required power (I + B*N0)/h
    radios, net = _two_device_env()
    delta = net.S / net.B
    z = _matching({0: 100.0, 1: 100.0}, delta, radios, net)
    assert set(z) == {0, 1}


def test_rb_matching_matches_exhaustive_search():
    g = rng.stream(103)
    for _ in range(30):
        n, m = 4, 3
        radios, net = _random_radio_env(g, n, m)
        u = {i: float(g.uniform(0.1, 4.0)) for i in range(n)}
        delta = float(g.uniform(0.5, 4.0))
        z = _matching(u, delta, radios, net)

        def gain(i, mm):
            noise = net.interference[mm] + net.B * net.N0
            mu = noise * (2 ** (net.S / (net.B * delta)) - 1) / radios[i].h
            if mu > radios[i].p_max:
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
    radios = {0: RadioProfile(h=0.9, p_max=5.0)}
    net = NetworkConfig(M=1, B=1.0, N0=0.1, interference=(0.0,), S=1.0,
                        eta1=1.0, eta2=1.0)
    # b1 = eta1 * noise/h; choose eta2 = b1 so the f4 zero is e-1
    noise = (net.interference[0] + net.B * net.N0) / radios[0].h
    net = NetworkConfig(M=1, B=1.0, N0=0.1, interference=(0.0,), S=1.0,
                        eta1=1.0, eta2=noise)
    (p,) = solve_sp2_power(*_pairs({0: 0}, {0: 3.0}, radios, net), net)
    expect = min(math.e - 1.0, radios[0].p_max / noise) * noise
    assert p == pytest.approx(expect, abs=1e-7)


def test_sp2_powers_equalize_rates():
    g = rng.stream(105)
    radios, net = _random_radio_env(g, 4, 4)
    z = {0: 0, 1: 1, 2: 2, 3: 3}
    u = {i: 2.0 for i in range(4)}
    p = solve_sp2_power(*_pairs(z, u, radios, net), net)
    rates = [
        net.B * np.log2(1 + radios[i].h * p[i] / (net.interference[m] + net.B * net.N0))
        for i, m in z.items()
    ]
    assert max(rates) - min(rates) < 1e-9
    for i in z:
        assert 0 < p[i] <= radios[i].p_max * (1 + 1e-12)


def test_sp2_power_matches_dense_sweep():
    g = rng.stream(106)
    radios, net = _random_radio_env(g, 3, 3)
    z = {0: 0, 1: 1, 2: 2}
    u = {i: 5.0 for i in range(3)}
    pairs = _pairs(z, u, radios, net)
    p = solve_sp2_power(*pairs, net)
    best = g2_objective(*pairs, p, net)
    noise = np.array([(net.interference[m] + net.B * net.N0) / radios[i].h
                      for i, m in z.items()])
    cap = min(radios[i].p_max / noise[i] for i in z)
    for pt in np.linspace(1e-4, cap, 4000):
        assert g2_objective(*pairs, noise * pt, net) <= best + 1e-6


def test_g2_empty_assignment_is_zero():
    radios, net = _two_device_env()
    assert g2_objective(*_pairs({}, {0: 1.0, 1: 1.0}, radios, net), np.zeros(0), net) == 0.0


def test_g2_single_device_reduction():
    radios, net = _two_device_env()
    pairs = _pairs({0: 1}, {0: 4.0, 1: 1.0}, radios, net)
    rate = net.B * np.log2(1 + radios[0].h * 0.5 / (net.interference[1] + net.B * net.N0))
    t = net.S / rate
    assert g2_objective(*pairs, np.array([0.5]), net) == pytest.approx(
        4.0 - net.eta1 * t * 0.5 - net.eta2 * t
    )


def test_ives_unprofitable_devices_give_empty_allocation():
    radios = {0: RadioProfile(h=0.9, p_max=1.0)}
    net = NetworkConfig(M=1, B=1.0, N0=0.1, interference=(0.5,), S=1.0,
                        eta1=100.0, eta2=1.0)
    sol = ives({0: 1e-6}, radios, net)
    assert sol.z == {} and sol.objective == 0.0
    assert sol.iterations == 1


def test_ives_trace_non_decreasing():
    g = rng.stream(107)
    for _ in range(30):
        n = int(g.integers(2, 10))
        m = int(g.integers(1, 10))
        radios, net = _random_radio_env(g, n, m)
        u = {i: float(g.uniform(0.1, 5.0)) for i in range(n)}
        sol = ives(u, radios, net)
        for a, b in zip(sol.trace, sol.trace[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a))
        assert len(sol.trace) <= 50


def test_ives_requires_positive_scores():
    radios, net = _two_device_env()
    with pytest.raises(InvalidInputError):
        ives({0: -1.0, 1: 2.0}, radios, net)


def test_initial_delay_covers_all_pairs():
    g = rng.stream(108)
    radios, net = _random_radio_env(g, 5, 4)
    d0 = initial_delay(Uplinks.build({i: 1.0 for i in radios}, radios, net), net)
    for i, radio in radios.items():
        for m in range(net.M):
            rate = net.B * np.log2(
                1 + radio.h * radio.p_max / (net.interference[m] + net.B * net.N0)
            )
            assert net.S / rate <= d0 + 1e-12


def test_ural_combines_subproblems():
    g = rng.stream(109)
    compute = _random_compute(g, 5)
    radios, net = _random_radio_env(g, 5, 5)
    u = {i: float(g.uniform(0.5, 3.0)) for i in range(5)}
    sp1, sp2 = ural(compute, radios, net, u)
    assert sp1.objective == pytest.approx(
        solve_sp1(compute, (net.eta1, net.eta2)).objective
    )
    assert sp2.objective == pytest.approx(ives(u, radios, net).objective)



# ---------------------------------------------------------------------------
# properties


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _computes(draw, max_n=8):
    """Compute profiles keyed by distinct, unordered device ids."""
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=max_n, unique=True))
    return {i: ComputeProfile(c=draw(_floats(0.1, 10.0)), iota=draw(_floats(0.1, 10.0)),
                              D=draw(st.integers(1, 20)), nu_max=draw(_floats(1e-3, 10.0)))
            for i in ids}


_weights = st.tuples(_floats(0.01, 100.0), _floats(0.01, 100.0))


@st.composite
def _uplink_envs(draw, max_n=8, max_m=8):
    """Scores, radios and a network for distinct, unordered device ids."""
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=max_n, unique=True))
    m = draw(st.integers(1, max_m))
    radios = {i: RadioProfile(h=draw(_floats(0.05, 1.0)), p_max=draw(_floats(0.01, 2.0)))
              for i in ids}
    u = {i: draw(_floats(0.01, 5.0)) for i in ids}
    net = NetworkConfig(
        M=m, B=1.0, N0=0.1, S=1.0,
        interference=tuple(draw(st.lists(_floats(0.0, 0.8), min_size=m, max_size=m))),
        eta1=draw(_floats(0.1, 3.0)), eta2=draw(_floats(0.1, 3.0)),
    )
    return u, radios, net


@given(compute=_computes(), weights=_weights)
def test_sp1_frequencies_feasible_with_equal_times(compute, weights):
    sol = solve_sp1(compute, weights)
    ids, work, _, nu_max = _compute_arrays(compute)
    nu = np.array([sol.nu[i] for i in ids])
    assert sorted(sol.nu) == ids
    assert (nu > 0).all() and (nu <= nu_max * (1 + 1e-12)).all()
    times = work / nu
    assert times.max() - times.min() <= 1e-12 * times.max()


@given(compute=_computes(), weights=_weights, stretch=_floats(0.0, 100.0))
def test_sp1_no_worse_than_any_common_completion_time(compute, weights, stretch):
    sol = solve_sp1(compute, weights)
    _, work, iota, nu_max = _compute_arrays(compute)
    t = (work / nu_max).max() * (1.0 + stretch)  # feasible: no device above nu_max
    assert sol.objective <= g1_objective(work, iota, work / t, weights) * (1 + 1e-12)


@given(env=_uplink_envs(), data=st.data())
def test_sp2_powers_within_cap_with_equal_rates(env, data):
    u, radios, net = env
    links = Uplinks.build(u, radios, net)
    n = min(len(u), net.M)
    rows = np.array(data.draw(st.permutations(range(len(u))))[:n], dtype=int)
    rbs = np.array(data.draw(st.permutations(range(net.M)))[:n], dtype=int)
    p = solve_sp2_power(links, rows, rbs, net)
    assert (p > 0).all() and (p <= links.p_max[rows] * (1 + 1e-12)).all()
    rates = [net.B * math.log2(1 + radios[int(links.ids[r])].h * pk
                               / (net.interference[m] + net.B * net.N0))
             for r, m, pk in zip(rows, rbs, p)]
    assert max(rates) - min(rates) <= 1e-9 * max(rates)


@given(env=_uplink_envs(max_n=6, max_m=6), delta=_floats(0.05, 10.0))
def test_rb_matching_total_equals_brute_force(env, delta):
    u, radios, net = env
    ids = sorted(u)
    cost = np.full((len(ids), net.M), math.inf)
    for row, i in enumerate(ids):
        for m in range(net.M):
            noise = net.interference[m] + net.B * net.N0
            mu = noise * (2.0 ** (net.S / (net.B * delta)) - 1.0) / radios[i].h
            if mu <= radios[i].p_max * (1.0 + 1e-9):
                gain = u[i] - net.eta1 * delta * min(mu, radios[i].p_max)
                if gain > 0:
                    cost[row, m] = -gain
    rows, rbs = rb_matching(Uplinks.build(u, radios, net), delta, net)
    assert len(set(rbs.tolist())) == len(rbs)
    got = sum(cost[r, m] for r, m in zip(rows, rbs))
    assert got == pytest.approx(assignment_brute_force(cost), abs=1e-9)


@given(b1=_floats(0.01, 100.0), log_ratio=st.floats(-4.0, 12.0))
def test_f4_zero_stays_inside_its_bracket(b1, log_ratio):
    # eta2/b1 from 1e-4 to 1e12; the analytic bracket overflows past ~5e5
    eta2 = b1 * 10.0 ** log_ratio
    root = f4_zero(b1, eta2)

    def f4(p):
        return b1 * ((1 + p) * math.log1p(p) - p) - eta2

    # the zero lies below e^2 - 1 when eta2/b1 < e^2 + 1, else below eta2/b1
    assert 0.0 < root <= max(eta2 / b1, math.e ** 2)
    step = 1e-6 * max(1.0, root)
    assert f4(root - step) < 0 < f4(root + step)


@given(env=_uplink_envs(max_n=12, max_m=12))
def test_ives_trace_never_decreases(env):
    u, radios, net = env
    sol = ives(u, radios, net)
    for a, b in zip(sol.trace, sol.trace[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))
    assert sol.iterations == len(sol.trace) <= 50
    assert set(sol.z) <= set(u) and len(set(sol.z.values())) == len(sol.z)
    for i, p in sol.p.items():
        assert 0 < p <= radios[i].p_max * (1 + 1e-12)
