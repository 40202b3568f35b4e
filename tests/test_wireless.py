import dataclasses
import json

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
    comm_cost,
    comp_cost,
    environment_to_json,
    round_totals,
    sample_environment,
    transmission_rate,
)


def _net(m=1, interference=(0.0,), **kw):
    defaults = dict(M=m, B=1.0, N0=1.0, interference=interference, S=1.0)
    defaults.update(kw)
    return NetworkConfig(**defaults)


def test_rate_zero_power():
    assert transmission_rate(RadioProfile(h=1.0, p_max=1.0), _net(), 0, 0.0) == 0.0


def test_rate_direct_substitution():
    # h*p/(I + B*N0) = 1/2, so the rate is log2(1.5)
    r = transmission_rate(RadioProfile(h=1.0, p_max=2.0), _net(N0=2.0), 0, 1.0)
    assert r == pytest.approx(np.log2(1.5))


def test_rate_depends_on_power_gain_product():
    net = _net()
    a = transmission_rate(RadioProfile(h=0.5, p_max=4.0), net, 0, 2.0)
    b = transmission_rate(RadioProfile(h=1.0, p_max=4.0), net, 0, 1.0)
    assert a == pytest.approx(b)


def test_comp_cost_unit_substitution():
    cp = ComputeProfile(c=1.0, iota=2.0, D=1, nu_max=2.0)
    assert comp_cost(cp, 1, 1.0) == (1.0, 1.0)


def test_comp_cost_scaling_laws():
    cp = ComputeProfile(c=1.0, iota=2.0, D=3, nu_max=4.0)
    t1, e1 = comp_cost(cp, 1, 1.0)
    t2, e2 = comp_cost(cp, 1, 2.0)
    assert t2 == pytest.approx(t1 / 2)
    assert e2 == pytest.approx(4 * e1)


def test_comp_cost_no_work():
    cp = ComputeProfile(c=1.0, iota=2.0, D=1, nu_max=1.0)
    assert comp_cost(cp, 0, 1.0) == (0.0, 0.0)
    with pytest.raises(InfeasibleAllocationError):
        comp_cost(cp, 1, 0.0)


def test_comm_cost_unit_payload():
    # payload equal to the rate gives unit time, so energy equals the power
    radio = RadioProfile(h=1.0, p_max=2.0)
    net = _net()
    rate = transmission_rate(radio, net, 0, 1.0)
    t, e = comm_cost(radio, _net(S=float(rate)), 0, 1.0)
    assert t == pytest.approx(1.0)
    assert e == pytest.approx(1.0)


def test_comm_cost_symmetric_rbs():
    radio = RadioProfile(h=0.7, p_max=1.0)
    net = _net(m=2, interference=(0.3, 0.3))
    assert comm_cost(radio, net, 0, 0.5) == comm_cost(radio, net, 1, 0.5)


def _simple_instance():
    compute = {
        0: ComputeProfile(c=1.0, iota=2.0, D=2, nu_max=2.0),
        1: ComputeProfile(c=0.5, iota=1.0, D=4, nu_max=1.0),
    }
    radios = {0: RadioProfile(h=0.8, p_max=1.0), 1: RadioProfile(h=0.4, p_max=0.5)}
    net = _net(m=2, interference=(0.1, 0.2), N0=0.1)
    return compute, radios, net


def test_round_totals_empty_assignment():
    compute, radios, net = _simple_instance()
    alloc = Allocation(z={}, p={}, nu={0: 1.0, 1: 0.5})
    u = {0: 1.0, 1: 1.0}
    contribution, energy, total = round_totals(compute, radios, net, alloc, u)
    assert contribution == 0.0
    expected_e = sum(comp_cost(compute[i], 1, alloc.nu[i])[1] for i in compute)
    assert energy == pytest.approx(expected_e)
    assert total == pytest.approx(max(
        comp_cost(compute[i], 1, alloc.nu[i])[0] for i in compute
    ))


def test_round_totals_single_transmitter():
    compute, radios, net = _simple_instance()
    alloc = Allocation(z={0: 1}, p={0: 0.5}, nu={0: 1.0, 1: 0.5})
    u = {0: 2.0, 1: 1.0}
    contribution, energy, total = round_totals(compute, radios, net, alloc, u)
    tc, ec = comm_cost(radios[0], net, 1, 0.5)
    comp = [comp_cost(compute[i], 1, alloc.nu[i]) for i in (0, 1)]
    assert contribution == pytest.approx(2.0)
    assert energy == pytest.approx(comp[0][1] + comp[1][1] + ec)
    assert total == pytest.approx(max(t for t, _ in comp) + tc)


def test_round_totals_rejects_duplicate_rb():
    compute, radios, net = _simple_instance()
    alloc = Allocation(z={0: 0, 1: 0}, p={0: 0.5, 1: 0.2}, nu={0: 1.0, 1: 0.5})
    with pytest.raises(InfeasibleAllocationError):
        round_totals(compute, radios, net, alloc, {0: 1.0, 1: 1.0})


def test_round_totals_rejects_power_above_cap():
    compute, radios, net = _simple_instance()
    alloc = Allocation(z={1: 0}, p={1: 0.9}, nu={0: 1.0, 1: 0.5})  # p_max is 0.5
    with pytest.raises(InfeasibleAllocationError):
        round_totals(compute, radios, net, alloc, {0: 1.0, 1: 1.0})


def test_sample_environment_bounds_and_determinism():
    spec = EnvironmentSpec()
    batch_sizes = {i: 1 + i % 4 for i in range(30)}
    compute, radios, net = sample_environment(rng.stream(5), spec, batch_sizes)
    again = sample_environment(rng.stream(5), spec, batch_sizes)
    assert compute == again[0] and radios == again[1] and net == again[2]
    assert list(compute) == list(radios) == list(range(30))
    assert {i: cp.D for i, cp in compute.items()} == batch_sizes
    assert net.M == 20
    assert all(0.1 <= r.h <= 1.0 for r in radios.values())
    assert all(0.0 < r.p_max <= 1.0 for r in radios.values())
    assert all(0.0 < c.nu_max <= 2.0 for c in compute.values())
    assert all(0.0 <= i <= 0.8 for i in net.interference)


def test_environment_json_roundtrip():
    compute, radios, net = sample_environment(
        rng.stream(6), EnvironmentSpec(M=4), {2: 3, 0: 1, 1: 2}
    )
    payload = json.loads(environment_to_json(compute, radios, net))
    assert payload["network"] == {**dataclasses.asdict(net),
                                  "interference": list(net.interference)}
    assert list(payload["devices"]) == ["0", "1", "2"]
    for i, entry in payload["devices"].items():
        assert ComputeProfile(**entry["compute"]) == compute[int(i)]
        assert RadioProfile(**entry["radio"]) == radios[int(i)]


def test_invalid_profiles_rejected():
    with pytest.raises(InvalidInputError):
        RadioProfile(h=0.0, p_max=1.0)
    with pytest.raises(InvalidInputError):
        ComputeProfile(c=1.0, iota=-1.0, D=1, nu_max=1.0)
    with pytest.raises(InvalidInputError):
        NetworkConfig(M=2, B=1.0, N0=1.0, interference=(0.0,), S=1.0)
