import dataclasses
import json
import math
import re

import numpy as np
import pytest

from fmlsim import rng
from fmlsim.errors import InfeasibleAllocationError, InvalidInputError
from fmlsim.wireless import (
    Allocation,
    ComputeProfile,
    EnvironmentSpec,
    NetworkConfig,
    RadioProfile,
    computation,
    environment_to_json,
    round_totals,
    sample_environment,
)


def _net(m=1, interference=(0.0,), **kw):
    defaults = dict(M=m, B=1.0, N0=1.0, interference=interference, S=1.0)
    defaults.update(kw)
    return NetworkConfig(**defaults)


def _alloc(rows=(), rbs=(), p=()):
    return Allocation(rows=np.array(rows, dtype=int), rbs=np.array(rbs, dtype=int),
                      p=np.array(p, dtype=float))


def _totals(compute, radios, net, alloc, u, nu=(1.0,), tau=1):
    """``round_totals`` charged the computation part at frequencies ``nu``."""
    comp = computation(compute, np.array(nu, dtype=float), tau)
    return round_totals(comp, radios, net, alloc, u)


def _one_device(c=1.0, iota=2.0, D=1, nu_max=2.0, h=1.0, p_max=2.0):
    return (ComputeProfile(c=[c], iota=[iota], D=[D], nu_max=[nu_max]),
            RadioProfile(h=[h], p_max=[p_max]))


def test_rate_zero_power():
    assert _net().rate(1.0, 0.0, 0) == 0.0


def test_rate_direct_substitution():
    # h*p/(I + B*N0) = 1/2, so the rate is log2(1.5)
    assert _net(N0=2.0).rate(1.0, 1.0, 0) == pytest.approx(np.log2(1.5))


def test_rate_depends_on_power_gain_product():
    net = _net()
    assert net.rate(0.5, 2.0, 0) == pytest.approx(net.rate(1.0, 1.0, 0))


def test_rate_broadcasts_over_every_rb():
    net = _net(m=3, interference=(0.0, 1.0, 3.0))
    rates = net.rate(np.array([[1.0], [2.0]]), 1.0)
    assert rates.shape == (2, 3)
    assert rates[1, 1] == pytest.approx(net.rate(2.0, 1.0, 1))
    assert np.array_equal(net.noise, [1.0, 2.0, 4.0])


def test_comp_cost_unit_substitution():
    # no upload: one unit of work at unit frequency takes unit time and energy
    compute, radios = _one_device()
    assert _totals(compute, radios, _net(), _alloc(), np.ones(1), [1.0]) == (0.0, 1.0, 1.0)


def test_comp_cost_scaling_laws():
    compute, radios = _one_device(D=3, nu_max=4.0)
    _, e1, t1 = _totals(compute, radios, _net(), _alloc(), np.ones(1), [1.0])
    _, e2, t2 = _totals(compute, radios, _net(), _alloc(), np.ones(1), [2.0])
    assert t2 == pytest.approx(t1 / 2)
    assert e2 == pytest.approx(4 * e1)


def test_comp_cost_no_work():
    compute, radios = _one_device(nu_max=1.0)
    assert _totals(compute, radios, _net(), _alloc(), np.ones(1), tau=0) == (0.0, 0.0, 0.0)
    with pytest.raises(InfeasibleAllocationError):
        computation(compute, np.array([0.0]))


def test_comm_cost_unit_payload():
    # payload equal to the rate gives unit upload time, so its energy equals the power;
    # the unit computation adds one unit of time and energy
    compute, radios = _one_device()
    net = _net(S=float(_net().rate(1.0, 1.0, 0)))
    u, energy, total = _totals(compute, radios, net, _alloc([0], [0], [1.0]), np.full(1, 3.0))
    assert u == 3.0
    assert energy == pytest.approx(1.0 + 1.0)
    assert total == pytest.approx(1.0 + 1.0)


def test_comm_cost_symmetric_rbs():
    compute, radios = _one_device(h=0.7, p_max=1.0)
    net = _net(m=2, interference=(0.3, 0.3))
    u = np.ones(1)
    assert (_totals(compute, radios, net, _alloc([0], [0], [0.5]), u)
            == _totals(compute, radios, net, _alloc([0], [1], [0.5]), u))


def _simple_instance():
    compute = ComputeProfile(c=[1.0, 0.5], iota=[2.0, 1.0], D=[2, 4], nu_max=[2.0, 1.0])
    radios = RadioProfile(h=[0.8, 0.4], p_max=[1.0, 0.5])
    net = _net(m=2, interference=(0.1, 0.2), N0=0.1)
    return compute, radios, net


def test_round_totals_empty_assignment():
    compute, radios, net = _simple_instance()
    nu = np.array([1.0, 0.5])
    contribution, energy, total = _totals(compute, radios, net, _alloc(), np.array([1.0, 1.0]), nu)
    assert contribution == 0.0
    work = compute.c * compute.D
    assert energy == pytest.approx((0.5 * compute.iota * work * nu ** 2).sum())
    assert total == pytest.approx((work / nu).max())


def test_round_totals_single_transmitter():
    compute, radios, net = _simple_instance()
    nu = np.array([1.0, 0.5])
    contribution, energy, total = _totals(
        compute, radios, net, _alloc([0], [1], [0.5]), np.array([2.0, 1.0]), nu
    )
    t_up = net.S / (net.B * np.log2(1 + 0.8 * 0.5 / (0.2 + net.B * net.N0)))
    work = compute.c * compute.D
    assert contribution == pytest.approx(2.0)
    assert energy == pytest.approx((0.5 * compute.iota * work * nu ** 2).sum() + t_up * 0.5)
    assert total == pytest.approx((work / nu).max() + t_up)


def test_round_totals_rejects_duplicate_rb():
    compute, radios, net = _simple_instance()
    alloc = _alloc([0, 1], [0, 0], [0.5, 0.2])
    with pytest.raises(InfeasibleAllocationError):
        _totals(compute, radios, net, alloc, np.array([1.0, 1.0]), [1.0, 0.5])


def test_round_totals_rejects_power_above_cap():
    compute, radios, net = _simple_instance()
    alloc = _alloc([1], [0], [0.9])  # p_max is 0.5
    with pytest.raises(InfeasibleAllocationError):
        _totals(compute, radios, net, alloc, np.array([1.0, 1.0]), [1.0, 0.5])


@pytest.mark.parametrize("alloc, nu, n_scores", [
    (_alloc([1], [2], [0.2]), [1.0, 0.5], 2),               # RB out of range
    (_alloc([1, 0], [0, 1], [0.2, 0.5]), [1.0, 0.5], 2),    # rows not ascending
    (_alloc([2], [0], [0.2]), [1.0, 0.5], 2),               # row out of range
    (_alloc([1], [0], [0.0]), [1.0, 0.5], 2),               # zero power, zero rate
    (_alloc([1], [0], [0.2]), [1.0, 1.5], 2),               # nu_max is 1.0
    (_alloc([1], [0, 1], [0.2]), [1.0, 0.5], 2),            # rows and rbs misaligned
    (_alloc([1], [0], [0.2]), [1.0, 0.5], 3),               # a score per row, plus one
    (_alloc([1], [0], [0.2]), [1.0, 0.5, 0.5], 3),          # a frequency per row, plus one
], ids=["rb-range", "row-order", "row-range", "zero-power", "frequency-cap", "misaligned",
        "score-count", "frequency-count"])
def test_round_totals_rejects_infeasible_allocation(alloc, nu, n_scores):
    compute, radios, net = _simple_instance()
    with pytest.raises(InfeasibleAllocationError):
        _totals(compute, radios, net, alloc, np.ones(n_scores), nu)


def test_sample_environment_bounds_and_determinism():
    spec = EnvironmentSpec()
    batch_sizes = 1 + np.arange(30) % 4
    compute, radios, net = sample_environment(rng.stream(5), spec, batch_sizes)
    again = sample_environment(rng.stream(5), spec, batch_sizes)
    for a, b in zip((compute, radios), again[:2]):
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name))
    assert net == again[2]
    assert radios.h.shape == compute.c.shape == (30,)
    assert np.array_equal(compute.D, batch_sizes)
    assert net.M == 20
    assert ((0.1 <= radios.h) & (radios.h <= 1.0)).all()
    assert ((0.0 < radios.p_max) & (radios.p_max <= 1.0)).all()
    assert ((0.0 < compute.nu_max) & (compute.nu_max <= 2.0)).all()
    assert all(0.0 <= i <= 0.8 for i in net.interference)


def test_sample_environment_draws_row_by_row():
    # each row draws c, iota, nu_max, p_max, h in turn, then the RBs their interference
    compute, radios, net = sample_environment(rng.stream(7), EnvironmentSpec(M=2), [1, 2])
    g = rng.stream(7)
    for row in range(2):
        assert compute.c[row] == g.uniform(0.5, 1.5)
        assert compute.iota[row] == g.uniform(1.0, 3.0)
        assert compute.nu_max[row] == g.uniform(0.0, 2.0)
        assert radios.p_max[row] == g.uniform(0.0, 1.0)
        assert radios.h[row] == g.uniform(0.1, 1.0)
    assert net.interference == (g.uniform(0.0, 0.8), g.uniform(0.0, 0.8))


def test_environment_json_roundtrip():
    compute, radios, net = sample_environment(rng.stream(6), EnvironmentSpec(M=4), [1, 2, 3])
    payload = json.loads(environment_to_json(compute, radios, net, [3, 10, 12]))
    assert payload["network"] == {**dataclasses.asdict(net),
                                  "interference": list(net.interference)}
    assert list(payload["devices"]) == ["10", "12", "3"]
    for row, i in enumerate([3, 10, 12]):
        entry = payload["devices"][str(i)]
        assert entry["compute"] == {"c": compute.c[row], "iota": compute.iota[row],
                                    "D": row + 1, "nu_max": compute.nu_max[row]}
        assert entry["radio"] == {"h": radios.h[row], "p_max": radios.p_max[row]}


def test_invalid_profiles_rejected():
    with pytest.raises(InvalidInputError):
        RadioProfile(h=[0.0], p_max=[1.0])
    with pytest.raises(InvalidInputError):
        ComputeProfile(c=[1.0], iota=[-1.0], D=[1], nu_max=[1.0])
    with pytest.raises(InvalidInputError):
        RadioProfile(h=[0.5, 0.6], p_max=[1.0])
    with pytest.raises(InvalidInputError):
        NetworkConfig(M=2, B=1.0, N0=1.0, interference=(0.0,), S=1.0)
    with pytest.raises(InvalidInputError, match="^interference must have M=2 entries, got 1$"):
        NetworkConfig(M=2, B=1.0, N0=1.0, interference=(0.0,), S=1.0)
    # each field named, a non-finite one included (min() with a NaN is never below 0)
    for name, value, message in [
        ("B", math.inf, "B must be finite, got inf"),
        ("N0", math.nan, "N0 must be finite, got nan"),
        ("S", math.inf, "S must be finite, got inf"),
        ("eta1", math.nan, "eta1 must be finite, got nan"),
        ("eta2", -math.inf, "eta2 must be finite, got -inf"),
        ("interference", (math.nan,), "interference must be finite, got (nan,)"),
        ("B", 0.0, "B must be positive, got 0.0"),
        ("N0", -1.0, "N0 must be positive, got -1.0"),
        ("eta2", -0.5, "eta2 must be non-negative, got -0.5"),
        ("interference", (-0.1,), "interference must be non-negative, got (-0.1,)"),
    ]:
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            _net(**{name: value})
    with pytest.raises(InvalidInputError, match="^M must be at least 1, got 0$"):
        _net(m=0, interference=())
