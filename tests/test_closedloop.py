import numpy as np
import pytest
from dataclasses import replace

from piac import (LAWS, GainSchedule, NotDeflatable, OutputSelector,
                  ShapeError, UnsupportedForLinearPath, UnsupportedForModalPath,
                  assemble, assemble_decpiac, assemble_dpiac, assemble_gbpiac,
                  build_laplacian, deflate_zero_mode, load_case,
                  bundled_case_path, modal_decouple, spectral_decompose)
from conftest import make_machine_net, random_homogeneous, ring_net


def test_assemble_rejects_mixed():
    net, comm, gains, _ = load_case(bundled_case_path("ieee39-like"))
    for law in LAWS:
        with pytest.raises(UnsupportedForLinearPath):
            assemble(net, comm, law, gains)


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
    b = assemble_decpiac(net, g, comm=comm)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.C, b.C)


def test_selector_matrices():
    net, comm = ring_net(3)
    g = GainSchedule.analytic(1.0, 2.0)
    sys = assemble_gbpiac(net, g, selector=OutputSelector.TOTAL_CONTROL_INPUT)
    assert np.array_equal(sys.C, [[0, 0, 0, 0, 0, 0, 0, 4.0]])
    sys_om = assemble_gbpiac(net, g, selector=OutputSelector.FREQUENCY_DEVIATION)
    ctc = sys_om.C.T @ sys_om.C
    expected = np.zeros((8, 8))
    expected[3:6, 3:6] = np.eye(3)
    assert np.array_equal(ctc, expected)
    sys_sp = assemble_dpiac(net, comm, g, selector=OutputSelector.MARGINAL_COST_SPREAD)
    L = build_laplacian(net)
    assert np.allclose(sys_sp.C[:, 9:12], 4.0 * L)
    sys_u = assemble_dpiac(net, comm, g, selector=OutputSelector.CONTROL_INPUT)
    assert np.allclose(sys_u.C[:, 9:12], 4.0 * np.eye(3))


def test_gbpiac_control_input_shares_prices():
    net, _ = make_machine_net(2, alpha=[1.0, 4.0], edges=[(1, 2, 1.0)])
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0),
                          selector=OutputSelector.CONTROL_INPUT)
    # alpha_s = 1/(1 + 1/4) = 0.8; rows scale with alpha_s/alpha_i * k2
    assert np.allclose(sys.C[:, -1], [0.8 * 4.0, 0.2 * 4.0])


def test_deflation_dimension_and_stability():
    rng = np.random.default_rng(5)
    for _ in range(8):
        net, comm, m, d = random_homogeneous(rng, n=int(rng.integers(2, 7)))
        k1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
        k3 = float(rng.uniform(0, 10))
        g = GainSchedule.analytic(k1, k3)
        for sys in (assemble_gbpiac(net, g), assemble_dpiac(net, comm, g)):
            defl = deflate_zero_mode(sys)
            assert defl.dim == sys.dim - 1
            assert defl.deflated
            assert defl.spectral_abscissa() < 0
            # idempotent
            assert deflate_zero_mode(defl) is defl


def test_deflation_single_node_drops_theta():
    net, _ = make_machine_net(1, edges=[])
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    defl = deflate_zero_mode(sys)
    assert defl.dim == 3
    assert "theta" not in defl.labels
    assert defl.spectral_abscissa() < 0


def test_deflation_refuses_observable_phase():
    net, _ = ring_net(3)
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    C_bad = np.zeros((1, sys.dim))
    C_bad[0, 0] = 1.0
    with pytest.raises(NotDeflatable):
        deflate_zero_mode(replace(sys, C=C_bad))


def test_dpiac_deflated_hurwitz_n3():
    net, comm = ring_net(3, k=2.0)
    for k1, k3 in [(0.2, 0.0), (1.0, 1.0), (5.0, 10.0)]:
        sys = assemble_dpiac(net, comm, GainSchedule.analytic(k1, k3))
        assert deflate_zero_mode(sys).spectral_abscissa() < 0


def test_modal_blocks_gbpiac():
    net, _ = ring_net(4, k=1.5, m=2.0, d=0.5)
    g = GainSchedule.analytic(0.8)
    sys = assemble_gbpiac(net, g)
    spec = spectral_decompose(build_laplacian(net))
    blocks = modal_decouple(sys, spec)
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
    sys = assemble_dpiac(net, comm, g, selector=OutputSelector.MARGINAL_COST_SPREAD)
    spec = spectral_decompose(build_laplacian(net))
    blocks = modal_decouple(sys, spec)
    assert len(blocks) == 5 and all(b.dim == 4 for b in blocks)
    for b in blocks:
        assert b.A[2, 3] == pytest.approx(4 * 1.1 * 2.0 * b.eigenvalue)
        assert b.C[0, 3] == pytest.approx(4 * 1.1 * b.eigenvalue)


def test_modal_single_node_equals_full():
    net, _ = make_machine_net(1, m=1.7, d=0.4, edges=[])
    g = GainSchedule.analytic(0.6)
    sys = assemble_gbpiac(net, g)
    spec = spectral_decompose(np.zeros((1, 1)))
    blocks = modal_decouple(sys, spec)
    assert len(blocks) == 1
    assert np.allclose(blocks[0].A, sys.A, atol=1e-15)


def test_modal_refuses_heterogeneous():
    net, comm = make_machine_net(3, m=[1.0, 2.0, 1.0],
                                 edges=[(1, 2, 1.0), (2, 3, 1.0)])
    g = GainSchedule.analytic(1.0)
    sys = assemble_gbpiac(net, g)
    spec = spectral_decompose(build_laplacian(net))
    with pytest.raises(UnsupportedForModalPath):
        modal_decouple(sys, spec)


def test_modal_refuses_deflated():
    net, _ = ring_net(3)
    sys = deflate_zero_mode(assemble_gbpiac(net, GainSchedule.analytic(1.0)))
    spec = spectral_decompose(build_laplacian(net))
    with pytest.raises(UnsupportedForModalPath):
        modal_decouple(sys, spec)


def test_modal_refuses_wrong_spectral():
    net, _ = ring_net(4)
    other, _ = ring_net(3)
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    with pytest.raises(ShapeError):
        modal_decouple(sys, spectral_decompose(build_laplacian(other)))


def test_heterogeneous_accepted_for_numeric_assembly():
    net, comm = make_machine_net(3, m=[1.0, 2.0, 0.5], d=[0.2, 1.0, 0.7],
                                 alpha=[1.0, 2.0, 0.5],
                                 edges=[(1, 2, 1.0), (2, 3, 2.0)])
    g = GainSchedule.analytic(1.0, 1.0)
    for sys in (assemble_gbpiac(net, g), assemble_dpiac(net, comm, g)):
        assert sys.hom is None
        assert deflate_zero_mode(sys).spectral_abscissa() < 0
