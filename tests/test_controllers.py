import math

import numpy as np
import pytest

from piac import (LAWS, CommunicationGraph, ControlLaw, DegenerateModel,
                  DomainError, GainConstraintError, GainSchedule, NoControllers,
                  Node, NodeKind, PowerNetwork, ShapeError, assemble,
                  bundled_case_path, deflate_zero_mode, load_case,
                  optimal_dispatch, synchronized_frequency)
from conftest import make_machine_net, ring_net


def two_node(alpha=(1.0, 1.0), injections=None):
    return make_machine_net(2, alpha=list(alpha), edges=[(1, 2, 1.0)],
                            injections=injections)


def test_gain_schedule_constraints():
    with pytest.raises(GainConstraintError):
        GainSchedule(k1=1.0, k2=3.9)
    with pytest.raises(GainConstraintError):
        GainSchedule(k1=0.0, k2=1.0)
    with pytest.raises(GainConstraintError):
        GainSchedule(k1=1.0, k2=4.0, k3=-1.0)
    g = GainSchedule.analytic(0.5, 2.0)
    assert g.k2 == 2.0 and g.analytic_mode
    assert not GainSchedule(k1=1.0, k2=5.0).analytic_mode


@pytest.mark.parametrize("gains", [
    dict(k1=math.inf, k2=math.inf), dict(k1=1.0, k2=math.inf),
    dict(k1=math.nan, k2=4.0), dict(k1=1.0, k2=4.0, k3=math.nan),
    dict(k1=1.0, k2=4.0, k3=math.inf),
])
def test_gain_schedule_refuses_non_finite(gains):
    with pytest.raises(GainConstraintError, match="must be finite"):
        GainSchedule(**gains)


def test_gbpiac_equilibrium_is_fixed():
    net, comm = two_node()
    law = ControlLaw.build(net, comm, "gbpiac", GainSchedule.analytic(1.0))
    assert law.d_eta(np.zeros(2), np.zeros(1))[0] == 0.0
    assert law.d_xi(np.zeros(2), np.zeros(1), np.zeros(1))[0] == 0.0
    assert np.array_equal(law.u(np.zeros(1)), [0.0, 0.0])
    # the offsets of the optimal dispatch hold every law's pairs still
    net, comm = two_node(alpha=(1.0, 3.0), injections=[2.0, 1.0])
    u_star = optimal_dispatch(net)
    for name in LAWS:
        law = ControlLaw.build(net, comm, name, GainSchedule.analytic(0.7, 2.0))
        eta, xi = law.offsets(u_star)
        assert np.allclose(law.d_eta(np.zeros(2), xi), 0.0, rtol=0, atol=1e-14)
        assert np.allclose(law.d_xi(np.zeros(2), eta, xi), 0.0, rtol=0, atol=1e-14)
        assert np.allclose(law.u(xi), u_star, rtol=1e-15, atol=0)


def test_gbpiac_direct_evaluation():
    net, comm = two_node()
    law = ControlLaw.build(net, comm, "gbpiac", GainSchedule(k1=1.0, k2=4.0))
    omega = np.array([0.1, 0.1])
    assert law.d_eta(omega, np.zeros(1))[0] == pytest.approx(0.2, abs=1e-15)
    assert law.d_xi(omega, np.zeros(1), np.zeros(1))[0] == pytest.approx(-0.2, abs=1e-15)
    assert np.array_equal(law.u(np.zeros(1)), [0.0, 0.0])


def test_gbpiac_broadcast_share():
    # alpha_s = 1/2, so u_i = (1/2) * 4 * xi_s = 2 each at xi_s = 1
    net, comm = two_node()
    law = ControlLaw.build(net, comm, "gbpiac", GainSchedule(k1=1.0, k2=4.0))
    u = law.u(np.ones(1))
    assert np.allclose(u, [2.0, 2.0])
    mc = net.prices * u
    assert mc[0] == mc[1]


def test_gbpiac_equal_marginal_costs_heterogeneous_prices():
    # equal by construction: u_i carries 1/alpha_i, so alpha_i * u_i agree
    # to the last rounding of the product
    net, comm = two_node(alpha=(1.0, 3.0))
    law = ControlLaw.build(net, comm, "gbpiac", GainSchedule.analytic(0.7))
    xi = np.array([-1.2])
    mc = net.prices * law.u(xi)
    assert abs(mc[0] - mc[1]) <= 4 * np.finfo(float).eps * abs(mc[0])
    assert law.mc(xi)[0] == law.mc(xi)[1]
    assert np.array_equal(law.spread(xi), [0.0, 0.0])


def test_dpiac_consensus_term():
    net, comm = two_node()
    law = ControlLaw.build(net, comm, "dpiac", GainSchedule(k1=1.0, k2=4.0, k3=1.0))
    xi = np.array([1.0, 0.0])
    assert np.allclose(law.d_eta(np.zeros(2), xi), [4.0, -4.0])
    assert np.allclose(law.u(xi), [4.0, 0.0])


def test_dpiac_consensus_sums_to_zero():
    rng = np.random.default_rng(3)
    net, comm = make_machine_net(5, edges=[(1, 2, 1.3), (2, 3, 0.4), (3, 4, 2.0),
                                           (4, 5, 1.1), (1, 5, 0.7)],
                                 alpha=[1.0, 2.0, 0.5, 1.5, 1.0])
    g = GainSchedule(k1=0.5, k2=2.0, k3=3.0)
    xi, om = rng.normal(size=5), rng.normal(size=5)
    d_eta = ControlLaw.build(net, comm, "dpiac", g).d_eta(om, xi)
    d_eta0 = ControlLaw.build(net, comm, "decpiac", g).d_eta(om, xi)
    # coordination reshuffles the accumulated imbalance, never creates any
    assert abs(np.sum(d_eta) - np.sum(d_eta0)) <= 1e-12


def test_dpiac_k3_zero_equals_decpiac():
    # decpiac has no consensus term at any k3
    rng = np.random.default_rng(11)
    net, comm = make_machine_net(4, m=[1.0, 2.0, 0.5, 1.5], d=[1.0, 0.3, 2.0, 1.0],
                                 alpha=[1.0, 2.0, 1.0, 0.5],
                                 edges=[(1, 2, 1.0), (2, 3, 2.0), (3, 4, 0.5)])
    g = GainSchedule(k1=0.5, k2=2.0, k3=5.0)
    a = ControlLaw.build(net, comm, "dpiac", GainSchedule(k1=0.5, k2=2.0, k3=0.0))
    b = ControlLaw.build(net, comm, "decpiac", g)
    for _ in range(5):
        eta, xi, om = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
        assert np.array_equal(a.d_eta(om, xi), b.d_eta(om, xi))
        assert np.array_equal(a.d_xi(om, eta, xi), b.d_xi(om, eta, xi))
        assert np.array_equal(a.u(xi), b.u(xi))
    # only dpiac keeps k3: the other laws have no consensus term to weigh
    assert b.gains.k3 == 0.0
    assert ControlLaw.build(net, comm, "gbpiac", g).gains.k3 == 0.0
    assert ControlLaw.build(net, comm, "dpiac", g).gains.k3 == 5.0


def test_rhs_shape_errors():
    net, comm = two_node()
    g = GainSchedule.analytic(1.0)
    local = ControlLaw.build(net, comm, "dpiac", g)
    with pytest.raises(ShapeError):
        local.d_eta(np.zeros(3), np.zeros(2))
    with pytest.raises(ShapeError):
        local.u(np.zeros(3))
    central = ControlLaw.build(net, comm, "gbpiac", g)
    with pytest.raises(ShapeError):   # central state must be scalar
        central.d_xi(np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ShapeError):
        central.offsets(np.zeros(3))


def test_control_law_domain_errors():
    net, comm = two_node()
    g = GainSchedule.analytic(1.0)
    for build in (ControlLaw.build, assemble):
        with pytest.raises(DomainError):
            build(net, comm, "pid", g)
        with pytest.raises(DomainError):
            build(net, None, "dpiac", g)
    with pytest.raises(DomainError):   # nothing to difference over
        ControlLaw.build(net, None, "decpiac", g).spread(np.zeros(2))


def test_maps_take_leading_axes():
    # a (paths, rows) batch maps element by element
    rng = np.random.default_rng(8)
    net, comm = make_machine_net(4, m=[1.0, 2.0, 0.5, 1.5], alpha=[1.0, 2.0, 1.0, 0.5])
    g = GainSchedule(k1=0.5, k2=2.0, k3=1.5)
    for name in LAWS:
        law = ControlLaw.build(net, comm, name, g)
        om = rng.normal(size=(2, 3, 4))
        eta, xi = rng.normal(size=(2, 3, law.pairs)), rng.normal(size=(2, 3, law.pairs))
        maps = {"d_eta": lambda k: law.d_eta(om[k], xi[k]),
                "d_xi": lambda k: law.d_xi(om[k], eta[k], xi[k]),
                "u": lambda k: law.u(xi[k]), "mc": lambda k: law.mc(xi[k]),
                "spread": lambda k: law.spread(xi[k])}
        for what, f in maps.items():
            batched = f(...)
            for k in np.ndindex(2, 3):
                assert np.allclose(batched[k], f(k), rtol=1e-14, atol=1e-14), (name, what)


def test_optimal_dispatch_examples():
    net, _ = two_node(alpha=(1.0, 2.0), injections=[2.0, 1.0])   # P_s = 3
    u = optimal_dispatch(net)
    assert np.allclose(u, [-2.0, -1.0])
    net0, _ = two_node(injections=[0.5, -0.5])
    assert np.allclose(optimal_dispatch(net0), [0.0, 0.0])
    net3, _ = make_machine_net(3, injections=[1.0, 1.0, 1.0],
                               edges=[(1, 2, 1.0), (2, 3, 1.0)])
    assert np.allclose(optimal_dispatch(net3), [-1.0, -1.0, -1.0])


def test_optimal_dispatch_kkt():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        alpha = np.exp(rng.uniform(-1, 1, size=n))
        inj = rng.normal(size=n)
        net, _ = make_machine_net(n, alpha=alpha, injections=inj)
        u = optimal_dispatch(net)
        mc = alpha * u
        p_s = inj.sum()
        assert np.abs(mc - mc[0]).max() <= 1e-12 * max(1.0, np.abs(mc[0]))
        assert abs(u.sum() + p_s) <= 1e-12 * max(1.0, abs(p_s))


def test_dispatch_no_controllers():
    net = PowerNetwork(nodes=(Node(id=1, kind=NodeKind.PASSIVE),
                              Node(id=2, kind=NodeKind.PASSIVE)),
                       edges=((1, 2, 1.0),))
    with pytest.raises(NoControllers):
        optimal_dispatch(net)


def test_synchronized_frequency():
    net, _ = two_node(injections=[1.0, -0.5])
    assert synchronized_frequency(net, np.zeros(2)) == pytest.approx(0.25)
    u = optimal_dispatch(net)
    assert synchronized_frequency(net, u) == pytest.approx(0.0, abs=1e-15)
    net0, _ = two_node()
    assert synchronized_frequency(net0, np.zeros(2)) == 0.0


def test_synchronized_frequency_degenerate():
    net = PowerNetwork(nodes=(Node(id=1, kind=NodeKind.PASSIVE),
                              Node(id=2, kind=NodeKind.PASSIVE)),
                       edges=((1, 2, 1.0),))
    with pytest.raises(DegenerateModel):
        synchronized_frequency(net, np.zeros(0))


def test_marginal_costs():
    g = GainSchedule(k1=1.0, k2=4.0)
    net, comm = two_node(alpha=(1.0, 2.0))
    law = ControlLaw.build(net, comm, "dpiac", g)
    assert np.array_equal(law.mc(np.zeros(2)), [0.0, 0.0])
    assert np.allclose(law.mc(np.array([1.0, 0.5])), [4.0, 4.0])
    net1, comm1 = two_node()
    assert np.allclose(ControlLaw.build(net1, comm1, "decpiac", g).mc(np.array([1.0, 0.0])),
                       [4.0, 0.0])
    with pytest.raises(ShapeError):
        law.mc(np.zeros(3))


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("case", ["homogeneous10", "ieee39-like"])
def test_conserved_is_the_deflated_kernel(case, law):
    net, comm, gains, _ = load_case(bundled_case_path(case))
    loop = assemble(net, comm, law, gains)
    assert loop.model.law.conserved == loop.dim - deflate_zero_mode(loop).dim


@pytest.mark.parametrize("law, conserved", [("gbpiac", 1), ("dpiac", 2), ("decpiac", 4)])
def test_conserved_counts_the_communication_components(law, conserved):
    # a 4-machine ring whose controllers talk in two pairs, {1, 2} and {3, 4}
    net, _ = ring_net(4, m=[1.0, 2.0, 0.5, 1.5], alpha=[1.0, 3.0, 0.5, 2.0])
    comm = CommunicationGraph(weights=((1, 2, 1.0), (3, 4, 2.0)))
    loop = assemble(net, comm, law, GainSchedule(k1=0.5, k2=2.0, k3=1.5))
    assert loop.model.law.conserved == conserved
    assert loop.dim - deflate_zero_mode(loop).dim == conserved


@pytest.mark.parametrize("law", LAWS)
def test_marginal_costs_are_the_priced_inputs(law):
    rng = np.random.default_rng(11)
    net, comm = make_machine_net(4, alpha=[1.0, 3.0, 0.7, 2.0])
    ctrl = ControlLaw.build(net, comm, law, GainSchedule(k1=0.5, k2=2.5, k3=1.0))
    xi = rng.normal(size=(5, ctrl.pairs))
    mc = ctrl.mc(xi)
    # every controller reading one pair quotes one marginal cost, exactly
    for pair in range(ctrl.pairs):
        readers = mc[:, ctrl.pair_of == pair]
        assert np.array_equal(readers, np.repeat(readers[:, :1], readers.shape[1], axis=1))
    priced = net.prices * ctrl.u(xi)
    assert np.all(np.abs(mc - priced) <= 4 * np.spacing(np.abs(mc)))


def test_gbpiac_spread_is_exactly_zero():
    rng = np.random.default_rng(12)
    net, comm = make_machine_net(3, alpha=[1.0, 2.0, 0.5])
    xi = rng.normal(size=(4, 1))
    for graph in (comm, None):
        spread = ControlLaw.build(net, graph, "gbpiac", GainSchedule.analytic(1.0)).spread(xi)
        assert spread.shape == (4, 3)
        assert np.all(spread == 0.0)
