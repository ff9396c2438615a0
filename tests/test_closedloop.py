import numpy as np
import pytest
import scipy.linalg
from dataclasses import replace

from piac import (LAWS, ControlLaw, DomainError, GainSchedule, NoControllers,
                  Node, NodeKind, OutputSelector, PowerNetwork, ShapeError,
                  UnstableSystem, UnsupportedForModalPath, assemble,
                  assemble_decpiac, assemble_dpiac, assemble_gbpiac,
                  build_laplacian, deflate_zero_mode, find_equilibrium,
                  grammians, load_case, bundled_case_path, modal_decouple,
                  output_matrix, spectral_decompose)
from conftest import (machine_bus_input, machine_only_case, make_machine_net,
                      random_homogeneous, ring_net)


def test_assemble_refuses_omega_feedthrough():
    # the default input enters the load buses' power balance, so it reaches
    # their frequencies with no dynamics between: the omega norm is infinite.
    # On the machine buses it has no direct term.
    net, comm, gains, _ = load_case(bundled_case_path("ieee39-like"))
    freq = ", ".join(str(i) for i in net.freq_ids)
    for law in LAWS:
        loop = assemble(net, comm, law, gains)
        with pytest.raises(DomainError, match=rf"bus\(es\) {freq};.*--b-diag"):
            output_matrix(loop, OutputSelector.FREQUENCY_DEVIATION)
        sys = assemble(net, comm, law, gains, machine_bus_input(net))
        assert sys.model.n_mf == 29 and sys.model.n_m == 10
        theta = slice(0, sys.model.n_mf)
        assert np.array_equal(output_matrix(sys, OutputSelector.FREQUENCY_DEVIATION),
                              sys.A[theta])
        assert not sys.B[theta].any()
        for sel in (OutputSelector.CONTROL_INPUT, OutputSelector.TOTAL_CONTROL_INPUT,
                    OutputSelector.MARGINAL_COST_SPREAD):
            assert output_matrix(loop, sel).shape == (
                1 if sel is OutputSelector.TOTAL_CONTROL_INPUT else 29, loop.dim)


@pytest.mark.parametrize("case", ["homogeneous10", "heterogeneous-prices"])
def test_output_matrix_matches_hand_written(case):
    # on a machine-only network the omega rows read off the model are the
    # identity on the omega block, and the other outputs read xi only
    net, comm = machine_only_case(case)
    g = GainSchedule(k1=0.8, k2=3.2, k3=4.0)
    n = net.n_nodes
    for law in LAWS:
        ctrl = ControlLaw.build(net, comm, law, g)
        unit = np.eye(ctrl.pairs)
        N = 2 * n + 2 * ctrl.pairs
        xi = slice(N - ctrl.pairs, N)
        om, u, us, sp = np.zeros((n, N)), np.zeros((n, N)), np.zeros((1, N)), np.zeros((n, N))
        om[:, n:2 * n] = np.eye(n)
        u[:, xi] = ctrl.u(unit).T
        us[0, xi] = ctrl.u(unit).sum(axis=1)
        sp[:, xi] = ctrl.spread(unit).T
        sys = assemble(net, comm, law, g)
        for sel, want in zip(OutputSelector, (om, u, us, sp)):
            assert np.array_equal(output_matrix(sys, sel), want)


def test_default_input_matrix_is_identity():
    net, _ = ring_net(3, m=2.0)
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    assert np.array_equal(sys.B_in, np.eye(3))
    assert np.array_equal(sys.B[3:6, :], np.eye(3) / 2.0)
    assert np.array_equal(sys.B[:3, :], np.zeros((3, 3)))


def test_gbpiac_single_node_matrix():
    net, _ = make_machine_net(1, m=2.0, d=3.0, edges=[])
    sys = assemble_gbpiac(net, GainSchedule.analytic(0.5))
    expected = np.array([[0.0, 1.0, 0.0, 0.0],
                         [0.0, -1.5, 0.0, 1.0],
                         [0.0, 3.0, 0.0, 0.0],
                         [0.0, -1.0, -0.5, -2.0]])
    assert np.allclose(sys.A, expected, atol=1e-15)


def two_node_unequal_prices():
    # M = (1, 2), D = (1, 0.5), K = 2 (communication weight 2 as well),
    # alpha = (1, 3); k1 = 0.5, k2 = 2, k3 = 0.25
    net, comm = make_machine_net(2, m=[1.0, 2.0], d=[1.0, 0.5], alpha=[1.0, 3.0],
                                 edges=[(1, 2, 2.0)])
    return net, comm, GainSchedule(k1=0.5, k2=2.0, k3=0.25)


def test_two_node_gbpiac_matrix_literal():
    # state (theta1, theta2, omega1, omega2, eta_s, xi_s); alpha_s = 3/4, so
    # u = (alpha_s/alpha_i) k2 xi_s = (1.5, 0.5) xi_s
    net, _, g = two_node_unequal_prices()
    expected = np.array([
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [-2.0, 2.0, -1.0, 0.0, 0.0, 1.5],      # (-L theta - D omega + u) / M
        [1.0, -1.0, 0.0, -0.25, 0.0, 0.25],
        [0.0, 0.0, 1.0, 0.5, 0.0, 0.0],        # D . omega
        [0.0, 0.0, -0.5, -1.0, -0.5, -2.0],    # -k1 (M . omega + eta) - k2 xi
    ])
    sys = assemble_gbpiac(net, g)
    assert np.allclose(sys.A, expected, rtol=0, atol=1e-15)


def test_two_node_dpiac_matrix_literal():
    # state (theta1, theta2, omega1, omega2, eta1, eta2, xi1, xi2); u = k2 xi;
    # consensus k3 L_comm diag(k2 alpha) = 0.25 [[2, -2], [-2, 2]] diag(2, 6)
    net, comm, g = two_node_unequal_prices()
    expected = np.array([
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [-2.0, 2.0, -1.0, 0.0, 0.0, 0.0, 2.0, 0.0],
        [1.0, -1.0, 0.0, -0.25, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, -3.0],
        [0.0, 0.0, 0.0, 0.5, 0.0, 0.0, -1.0, 3.0],
        [0.0, 0.0, -0.5, 0.0, -0.5, 0.0, -2.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 0.0, -0.5, 0.0, -2.0],
    ])
    sys = assemble_dpiac(net, comm, g)
    assert np.array_equal(sys.A, expected)


def test_single_node_laws_coincide():
    net, comm = make_machine_net(1, m=1.3, d=0.7, edges=[])
    g = GainSchedule.analytic(0.9, 2.0)
    a = assemble_gbpiac(net, g)
    b = assemble_dpiac(net, comm, g)
    c = assemble_decpiac(net, g)
    assert np.allclose(a.A, b.A, atol=1e-15)
    assert np.array_equal(b.A, c.A)   # the zero Laplacian kills the k3 term


def test_dpiac_k3_zero_equals_decpiac():
    net, comm = ring_net(4, k=1.4)
    g = GainSchedule(k1=0.5, k2=2.0, k3=0.0)
    a = assemble_dpiac(net, comm, g)
    # decpiac has no consensus term, so its k3 changes nothing
    for b in (assemble_decpiac(net, g, comm=comm),
              assemble_decpiac(net, replace(g, k3=5.0), comm=comm)):
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)
        for sel in OutputSelector:
            assert np.array_equal(output_matrix(a, sel), output_matrix(b, sel))


def test_selector_matrices():
    net, comm = ring_net(3)
    g = GainSchedule.analytic(1.0, 2.0)
    gb = assemble_gbpiac(net, g)
    assert np.array_equal(output_matrix(gb, OutputSelector.TOTAL_CONTROL_INPUT),
                          [[0, 0, 0, 0, 0, 0, 0, 4.0]])
    C_om = output_matrix(gb, OutputSelector.FREQUENCY_DEVIATION)
    ctc = C_om.T @ C_om
    expected = np.zeros((8, 8))
    expected[3:6, 3:6] = np.eye(3)
    assert np.array_equal(ctc, expected)
    dp = assemble_dpiac(net, comm, g)
    L = build_laplacian(net)
    assert np.allclose(output_matrix(dp, OutputSelector.MARGINAL_COST_SPREAD)[:, 9:12],
                       4.0 * L)
    assert np.allclose(output_matrix(dp, OutputSelector.CONTROL_INPUT)[:, 9:12],
                       4.0 * np.eye(3))


def test_gbpiac_control_input_shares_prices():
    net, _ = make_machine_net(2, alpha=[1.0, 4.0], edges=[(1, 2, 1.0)])
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    # alpha_s = 1/(1 + 1/4) = 0.8; rows scale with alpha_s/alpha_i * k2
    assert np.allclose(output_matrix(sys, OutputSelector.CONTROL_INPUT)[:, -1],
                       [0.8 * 4.0, 0.2 * 4.0])


def test_deflation_dimension_and_stability():
    # coordinated laws lose the one conserved phase sum, uncoordinated ones
    # (decpiac, dpiac at k3 = 0) one per controller
    rng = np.random.default_rng(5)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        net, comm, m, d = random_homogeneous(rng, n=n)
        k1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
        k3 = float(rng.uniform(0, 10))
        g = GainSchedule.analytic(k1, k3)
        g0 = GainSchedule.analytic(k1, 0.0)
        for sys, lost in ((assemble_gbpiac(net, g), 1),
                          (assemble_dpiac(net, comm, g), 1),
                          (assemble_dpiac(net, comm, g0), n),
                          (assemble_decpiac(net, g), n)):
            defl = deflate_zero_mode(sys)
            assert defl.dim == sys.dim - lost
            assert defl.basis is not None
            assert np.linalg.eigvals(defl.A).real.max() < 0
            # idempotent
            assert deflate_zero_mode(defl) is defl


def test_deflation_basis_comes_from_the_kernel_qr(monkeypatch):
    # one pivoted QR of [A B]: its trailing columns span the kernel, its
    # leading ones are the basis, which holds the ranges of A and B
    calls = []
    real = scipy.linalg.qr

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel's QR already holds the basis")

    monkeypatch.setattr(scipy.linalg, "qr", counting)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    net, comm = ring_net(5, k=1.3)
    for law in LAWS:
        sys = assemble(net, comm, law, GainSchedule.analytic(0.7, 0.5))
        calls.clear()
        defl = deflate_zero_mode(sys)
        assert len(calls) == 1, law
        P = defl.basis
        assert np.abs(P.T @ P - np.eye(defl.dim)).max() <= 1e-14
        M = np.hstack([sys.A, sys.B])
        assert np.abs(M - P @ (P.T @ M)).max() <= 1e-13 * np.abs(M).max()


def _transfer(sys, C, s):
    return C @ np.linalg.solve(s * np.eye(sys.dim) - sys.A, sys.B)


@pytest.mark.parametrize("case", ["homogeneous10", "heterogeneous-prices"])
@pytest.mark.parametrize("law", LAWS)
def test_deflation_keeps_transfer_function(case, law):
    if case == "homogeneous10":
        net, comm, g, _ = load_case(bundled_case_path(case))
    else:
        net, comm = make_machine_net(4, m=[1.0, 2.0, 0.5, 3.0], d=[0.2, 1.0, 0.7, 2.0],
                                     alpha=[1.0, 2.0, 0.5, 3.0],
                                     edges=[(1, 2, 1.0), (2, 3, 2.0), (3, 4, 0.5),
                                            (1, 4, 1.0)])
        g = GainSchedule.analytic(0.7, 1.5)
    sys = assemble(net, comm, law, g)
    defl = deflate_zero_mode(sys)
    for sel in OutputSelector:
        C = output_matrix(sys, sel)
        for s in (0.3, 1.0j, 2.0 + 0.5j, -0.1 + 3.0j):
            want = _transfer(sys, C, s)
            got = _transfer(defl, C @ defl.basis, s)
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_deflation_kron_reduced_ieee39_is_hurwitz():
    # the mixed network's loop, Kron-reduced by the linear model's passive
    # balance: heterogeneous, with frequency-dependent and passive buses
    net, comm, g, _ = load_case(bundled_case_path("ieee39-like"))
    for law, dim in (("gbpiac", 40), ("dpiac", 96), ("decpiac", 68)):
        defl = deflate_zero_mode(assemble(net, comm, law, g))
        assert defl.dim == dim
        assert np.linalg.eigvals(defl.A).real.max() < 0


def test_deflation_single_node_drops_theta():
    net, _ = make_machine_net(1, edges=[])
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    defl = deflate_zero_mode(sys)
    assert defl.dim == 3
    # the phase is kept only mixed with eta_s: the conserved eta_s - d theta
    # is the dropped direction
    theta, _, eta, _ = sys.model.unpack(np.arange(sys.dim))
    assert np.abs(defl.basis[eta] - net.dampings * defl.basis[theta]).max() <= 1e-15
    assert np.linalg.eigvals(defl.A).real.max() < 0


def test_deflation_lets_output_read_one_phase():
    # on reachable states sum(d theta) = eta_s, so theta_1 equals
    # theta_1 - mean(theta) + eta_s / (n d), an output blind to the phase mean
    n, d = 3, 1.0
    net, _ = ring_net(n, d=d)
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    C_phase = np.zeros((1, sys.dim))
    C_phase[0, 0] = 1.0
    theta, _, eta, _ = sys.model.unpack(np.arange(sys.dim))
    C_blind = np.zeros((1, sys.dim))
    C_blind[0, theta] = -1.0 / n
    C_blind[0, 0] += 1.0
    C_blind[0, eta] = 1.0 / (n * d)
    defl = deflate_zero_mode(sys)
    g = grammians(defl, [C_phase @ defl.basis, C_blind @ defl.basis])
    phase, blind = (np.trace(defl.B.T @ Qo @ defl.B) for Qo in g.observabilities)
    assert np.isfinite(phase)
    assert phase == pytest.approx(blind, rel=1e-10)


def test_deflation_keeps_a_reached_marginal_mode():
    # an input into theta_1 moves the conserved eta_s - sum(d theta): nothing
    # is unreachable, so the marginal mode stays and the solve refuses it
    net, _ = ring_net(3)
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    B = np.zeros((sys.dim, 1))
    B[0, 0] = 1.0
    defl = deflate_zero_mode(replace(sys, B=B))
    assert defl.dim == sys.dim
    with pytest.raises(UnstableSystem):
        grammians(defl, [output_matrix(sys, OutputSelector.CONTROL_INPUT) @ defl.basis])


def test_dpiac_deflated_hurwitz_n3():
    net, comm = ring_net(3, k=2.0)
    for k1, k3 in [(0.2, 0.0), (1.0, 1.0), (5.0, 10.0)]:
        sys = assemble_dpiac(net, comm, GainSchedule.analytic(k1, k3))
        assert np.linalg.eigvals(deflate_zero_mode(sys).A).real.max() < 0


def test_modal_blocks_gbpiac():
    net, _ = ring_net(4, k=1.5, m=2.0, d=0.5)
    g = GainSchedule.analytic(0.8)
    sys = assemble_gbpiac(net, g)
    spec = spectral_decompose(build_laplacian(net))
    blocks = modal_decouple(sys, OutputSelector.FREQUENCY_DEVIATION)
    assert len(blocks) == 4
    assert blocks[0].dim == 4 and all(b.dim == 2 for b in blocks[1:])
    m, d = 2.0, 0.5
    for b in blocks[1:]:
        assert np.allclose(b.A, [[0.0, 1.0], [-b.eigenvalue / m, -d / m]])
    # zero-mode block couples through sqrt(n)
    rt = 2.0
    A0 = blocks[0].A
    assert A0[1, 3] == pytest.approx(4 * 0.8 / (m * rt))
    assert A0[2, 1] == pytest.approx(d * rt)
    assert A0[3, 1] == pytest.approx(-0.8 * m * rt)
    # block inputs are the rotated disturbance rows
    Q = spec.modal_matrix
    for i, b in enumerate(blocks):
        assert np.allclose(b.B[1, :], Q[:, i] / m)


def test_modal_blocks_dpiac_shapes():
    net, comm = ring_net(5, k=0.7)
    g = GainSchedule.analytic(1.1, 2.0)
    sys = assemble_dpiac(net, comm, g)
    blocks = modal_decouple(sys, OutputSelector.MARGINAL_COST_SPREAD)
    assert len(blocks) == 5 and all(b.dim == 4 for b in blocks)
    for b in blocks:
        assert b.A[2, 3] == pytest.approx(4 * 1.1 * 2.0 * b.eigenvalue)
        assert b.C[0, 3] == pytest.approx(4 * 1.1 * b.eigenvalue)


def test_modal_single_node_equals_full():
    net, _ = make_machine_net(1, m=1.7, d=0.4, edges=[])
    g = GainSchedule.analytic(0.6)
    sys = assemble_gbpiac(net, g)
    blocks = modal_decouple(sys, OutputSelector.FREQUENCY_DEVIATION)
    assert len(blocks) == 1
    assert np.allclose(blocks[0].A, sys.A, atol=1e-15)


def test_modal_refuses_heterogeneous():
    net, comm = make_machine_net(3, m=[1.0, 2.0, 1.0],
                                 edges=[(1, 2, 1.0), (2, 3, 1.0)])
    g = GainSchedule.analytic(1.0)
    sys = assemble_gbpiac(net, g)
    with pytest.raises(UnsupportedForModalPath):
        modal_decouple(sys, OutputSelector.FREQUENCY_DEVIATION)


def test_modal_refuses_deflated():
    net, _ = ring_net(3)
    sys = deflate_zero_mode(assemble_gbpiac(net, GainSchedule.analytic(1.0)))
    with pytest.raises(UnsupportedForModalPath):
        modal_decouple(sys, OutputSelector.FREQUENCY_DEVIATION)


def test_heterogeneous_accepted_for_numeric_assembly():
    net, comm = make_machine_net(3, m=[1.0, 2.0, 0.5], d=[0.2, 1.0, 0.7],
                                 alpha=[1.0, 2.0, 0.5],
                                 edges=[(1, 2, 1.0), (2, 3, 2.0)])
    g = GainSchedule.analytic(1.0, 1.0)
    for sys in (assemble_gbpiac(net, g), assemble_dpiac(net, comm, g)):
        with pytest.raises(UnsupportedForModalPath):
            modal_decouple(sys, OutputSelector.FREQUENCY_DEVIATION)
        assert np.linalg.eigvals(deflate_zero_mode(sys).A).real.max() < 0


def test_unknown_selector_and_model_name_their_choices():
    with pytest.raises(DomainError,
                       match=r"^unknown selector 'bar' \(omega\|u\|us\|spread\)$"):
        OutputSelector.from_token("bar")
    net, comm, gains, _ = load_case(bundled_case_path("homogeneous10"))
    with pytest.raises(DomainError, match=r"^unknown model 'cos' \(sin\|linear\)$"):
        find_equilibrium(net, "dpiac", gains, comm, model="cos")


def test_network_without_controllers_is_refused():
    # every bus passive: no law has a bus to act through, and the harmonic
    # price aggregate alpha_s would divide by zero
    net = PowerNetwork(nodes=(Node(1, NodeKind.PASSIVE, injection=0.1),
                              Node(2, NodeKind.PASSIVE, injection=-0.1)),
                       edges=((1, 2, 1.0),))
    for law in LAWS:
        with pytest.raises(NoControllers, match="no controller nodes"):
            assemble(net, None, law, GainSchedule.analytic(1.0))


def _deflated_ring():
    net, _ = ring_net(3)
    return deflate_zero_mode(assemble_gbpiac(net, GainSchedule.analytic(1.0)))


@pytest.mark.parametrize("build, error, message", [
    (lambda: assemble_gbpiac(ring_net(3)[0], GainSchedule.analytic(1.0),
                             B_in=np.eye(2)),
     ShapeError, "B_in must be (3,3), got (2, 2)"),
    (lambda: output_matrix(_deflated_ring(), OutputSelector.CONTROL_INPUT),
     DomainError, "output_matrix needs the undeflated loop from assemble"),
], ids=["B_in-shape", "output-of-deflated"])
def test_outside_input_is_refused(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
