import numpy as np
import pytest

from piac import (DomainError, DpiacModeCoefficients, GainSchedule,
                  OutputSelector, ShapeError, UnstableSystem,
                  analyze, assemble_dpiac, assemble_gbpiac, build_laplacian,
                  compare_laws, deflate_zero_mode, grammians,
                  h2_bounds_general_B, h2_dpiac_analytic, h2_gbpiac_analytic,
                  h2_modal, h2_numeric, limit_k1_infinity, lyapunov_solve,
                  spectral_decompose)
from conftest import make_machine_net, random_homogeneous, ring_net

OM = OutputSelector.FREQUENCY_DEVIATION
U = OutputSelector.CONTROL_INPUT
US = OutputSelector.TOTAL_CONTROL_INPUT
SP = OutputSelector.MARGINAL_COST_SPREAD


# --- lyapunov solver ----------------------------------------------------------


def test_lyapunov_scalar():
    X = lyapunov_solve(np.array([[-1.0]]), np.array([[2.0]]))
    assert np.allclose(X, [[1.0]])


def test_lyapunov_diagonal():
    X = lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2))
    assert np.allclose(X, np.diag([0.5, 0.25]))


def test_lyapunov_random_residual():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(8, 8))
    A = A - (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(8)
    R = rng.normal(size=(8, 8))
    RHS = R @ R.T
    X = lyapunov_solve(A, RHS)
    res = np.abs(X @ A + A.T @ X + RHS).max()
    assert res <= 1e-9 * np.abs(RHS).max()
    assert np.allclose(X, X.T)
    assert np.linalg.eigvalsh(X).min() >= -1e-10 * np.abs(X).max()


def test_lyapunov_rejects_unstable():
    with pytest.raises(UnstableSystem):
        lyapunov_solve(np.array([[0.0]]), np.array([[1.0]]))
    with pytest.raises(UnstableSystem):
        lyapunov_solve(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))


def test_lyapunov_rejects_nonsymmetric_rhs():
    with pytest.raises(ShapeError):
        lyapunov_solve(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_lyapunov_zero_rhs():
    assert np.array_equal(lyapunov_solve(-np.eye(3), np.zeros((3, 3))),
                          np.zeros((3, 3)))


def test_lyapunov_large_system():
    # a whole-network-sized system must meet the same bound as a small block
    rng = np.random.default_rng(4)
    n = 220
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    R = rng.normal(size=(n, 8))
    RHS = R @ R.T
    X = lyapunov_solve(A, RHS)
    res = np.abs(X @ A + A.T @ X + RHS).max()
    assert res <= 1e-9 * np.abs(RHS).max()


def test_h2_numeric_requires_deflation():
    net, _ = ring_net(3)
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    with pytest.raises(UnstableSystem):
        h2_numeric(sys)   # undeflated: the phase mode is marginal


def test_decpiac_spread_needs_comm():
    from piac import assemble_decpiac
    net, _ = ring_net(3)
    with pytest.raises(DomainError):
        assemble_decpiac(net, GainSchedule.analytic(1.0),
                         selector=SP)


# --- numeric norms against frozen closed-form values ---------------------------


def test_gbpiac_omega_frozen():
    # (n-1)/(2 m d) + (d + 5 m k1)/(2 m (2 k1 m + d)^2) at n=3, m=2, d=3,
    # k1=0.5 evaluates to 1/6 + 2/25 = 37/150
    net, _ = ring_net(3, m=2.0, d=3.0)
    sys = deflate_zero_mode(assemble_gbpiac(net, GainSchedule.analytic(0.5)))
    val = h2_numeric(sys)
    assert val == pytest.approx(37.0 / 150.0, abs=1e-8)


def test_gbpiac_u_frozen():
    for n in (2, 5):
        net, _ = ring_net(n)
        sys = deflate_zero_mode(assemble_gbpiac(net, GainSchedule.analytic(0.5),
                                                selector=U))
        assert h2_numeric(sys) == pytest.approx(0.25, abs=1e-8)


def test_gbpiac_us_frozen():
    net, _ = ring_net(4)
    sys = deflate_zero_mode(assemble_gbpiac(net, GainSchedule.analytic(1.0),
                                            selector=US))
    assert h2_numeric(sys) == pytest.approx(2.0, abs=1e-8)


def test_grammian_duality():
    net, comm = ring_net(4, k=1.3, m=0.7, d=2.0)
    sys = deflate_zero_mode(assemble_dpiac(net, comm,
                                           GainSchedule.analytic(1.5, 0.5)))
    g = grammians(sys)
    via_o = np.trace(sys.B.T @ g.observability @ sys.B)
    via_c = np.trace(sys.C @ g.controllability @ sys.C.T)
    assert abs(via_o - via_c) <= 1e-8 * max(1.0, abs(via_o))


# --- closed forms --------------------------------------------------------------


def test_gbpiac_analytic_values():
    ana = h2_gbpiac_analytic(2, 1.0, 1.0, 1.0, OM)
    assert ana.value == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert ana.relative == pytest.approx(0.5)
    assert ana.overall == pytest.approx(1.0 / 3.0)
    single = h2_gbpiac_analytic(1, 1.0, 1.0, 1.0, OM)
    assert single.relative == 0.0
    for n, m, d in [(2, 1.0, 1.0), (7, 0.3, 2.0)]:
        assert h2_gbpiac_analytic(n, m, d, 0.9, U).value == pytest.approx(0.45)
    assert h2_gbpiac_analytic(4, 1.0, 1.0, 1.0, US).value == pytest.approx(2.0)
    assert h2_gbpiac_analytic(4, 1.0, 1.0, 1.0, SP).value == 0.0


def test_gbpiac_analytic_domain():
    with pytest.raises(DomainError):
        h2_gbpiac_analytic(3, -1.0, 1.0, 1.0, OM)
    with pytest.raises(DomainError):
        h2_gbpiac_analytic(0, 1.0, 1.0, 1.0, OM)


def test_dpiac_coefficients_worked_point():
    c = DpiacModeCoefficients.from_params(2.0, 1.0, 1.0, 1.0, 1.0)
    assert c.b1 == 150.0
    assert c.b2 == 50.0
    assert c.e == 250.0


def test_dpiac_analytic_worked_point():
    net, _ = make_machine_net(2, edges=[(1, 2, 1.0)])   # lambda_2 = 2
    spec = spectral_decompose(build_laplacian(net))
    assert h2_dpiac_analytic(spec, 1, 1, 1, 1, OM).value == pytest.approx(19 / 30)
    assert h2_dpiac_analytic(spec, 1, 1, 1, 1, U).value == pytest.approx(0.7)
    assert h2_dpiac_analytic(spec, 1, 1, 1, 1, SP).value == pytest.approx(0.8)


def test_dpiac_coefficients_positive_on_grid():
    for lam in (0.1, 1.0, 10.0, 100.0):
        for k1 in (0.1, 1.0, 10.0):
            for k3 in (0.0, 0.5, 5.0):
                for m, d in ((0.1, 10.0), (1.0, 1.0), (10.0, 0.1)):
                    c = DpiacModeCoefficients.from_params(lam, m, d, k1, k3)
                    assert c.e > 0 and c.b1 > 0 and c.b2 > 0


def test_analytic_matches_numeric_sampled():
    rng = np.random.default_rng(101)
    for _ in range(8):
        net, comm, m, d = random_homogeneous(rng, n=int(rng.integers(2, 7)))
        k1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
        k3 = float(rng.uniform(0, 10))
        g = GainSchedule.analytic(k1, k3)
        spec = spectral_decompose(build_laplacian(net))
        n = net.n_nodes
        for sel in (OM, U, US, SP):
            gb_num = h2_numeric(deflate_zero_mode(assemble_gbpiac(net, g, selector=sel)))
            gb_ana = h2_gbpiac_analytic(n, m, d, k1, sel).value
            assert abs(gb_num - gb_ana) <= 1e-8 * max(1.0, abs(gb_num))
            dp_num = h2_numeric(deflate_zero_mode(
                assemble_dpiac(net, comm, g, selector=sel)))
            dp_ana = h2_dpiac_analytic(spec, m, d, k1, k3, sel).value
            assert abs(dp_num - dp_ana) <= 1e-8 * max(1.0, abs(dp_num))


def test_modal_matches_dense():
    rng = np.random.default_rng(55)
    for _ in range(5):
        net, comm, m, d = random_homogeneous(rng, n=int(rng.integers(2, 7)))
        g = GainSchedule.analytic(float(np.exp(rng.uniform(np.log(0.1), np.log(10)))),
                                  float(rng.uniform(0, 10)))
        spec = spectral_decompose(build_laplacian(net))
        for sel in (OM, U, US, SP):
            sys = assemble_dpiac(net, comm, g, selector=sel)
            dense = h2_numeric(deflate_zero_mode(sys))
            modal, per_mode = h2_modal(sys, spec)
            assert abs(modal - dense) <= 1e-9 * max(1.0, abs(dense))
            assert len(per_mode) == net.n_nodes


def test_modal_per_mode_matches_analytic():
    net, comm = ring_net(5, k=1.6, m=1.2, d=0.8)
    g = GainSchedule.analytic(0.7, 3.0)
    spec = spectral_decompose(build_laplacian(net))
    for sel in (OM, U, SP):
        sys = assemble_dpiac(net, comm, g, selector=sel)
        _, per_mode = h2_modal(sys, spec)
        ana = h2_dpiac_analytic(spec, 1.2, 0.8, 0.7, 3.0, sel)
        assert np.allclose(per_mode, ana.per_mode, rtol=1e-8, atol=1e-12)


def test_deflation_preserves_norm():
    # dense deflated solve against the modal route, which removes the zero
    # mode inside its own block instead
    rng = np.random.default_rng(77)
    net, comm, m, d = random_homogeneous(rng, n=5)
    g = GainSchedule.analytic(1.3, 0.9)
    spec = spectral_decompose(build_laplacian(net))
    sys = assemble_gbpiac(net, g)
    dense = h2_numeric(deflate_zero_mode(sys))
    modal, _ = h2_modal(sys, spec)
    assert abs(dense - modal) <= 1e-9 * max(1.0, abs(dense))


def test_topology_independence_gbpiac():
    # same n, m, d, k1 on a ring and on a star-plus-chords graph
    net_a, _ = ring_net(6, k=0.4, m=1.5, d=0.6)
    net_b, _ = make_machine_net(6, m=1.5, d=0.6,
                                edges=[(1, k, 3.0) for k in range(2, 7)] +
                                      [(2, 5, 0.2)])
    g = GainSchedule.analytic(0.9)
    vals = [h2_numeric(deflate_zero_mode(assemble_gbpiac(net, g)))
            for net in (net_a, net_b)]
    assert abs(vals[0] - vals[1]) <= 1e-10 * max(1.0, abs(vals[0]))


def test_bounds_identity_and_scaling():
    g_val = 1.7
    assert h2_bounds_general_B(g_val, np.eye(3)) == (g_val, g_val)
    lo, hi = h2_bounds_general_B(g_val, 2.0 * np.eye(3))
    assert lo == pytest.approx(4 * g_val) and hi == pytest.approx(4 * g_val)
    net, _ = ring_net(3)
    g = GainSchedule.analytic(1.0)
    sys = deflate_zero_mode(assemble_gbpiac(net, g, B_in=2.0 * np.eye(3)))
    base = h2_gbpiac_analytic(3, 1.0, 1.0, 1.0, OM).value
    assert h2_numeric(sys) == pytest.approx(4 * base, rel=1e-9)


def test_bounds_contain_numeric_random_diag():
    rng = np.random.default_rng(9)
    net, _ = ring_net(4, k=1.1)
    g = GainSchedule.analytic(0.8)
    base = h2_gbpiac_analytic(4, 1.0, 1.0, 0.8, OM).value
    for _ in range(5):
        B = np.diag(rng.uniform(0.5, 2.0, size=4))
        lo, hi = h2_bounds_general_B(base, B)
        num = h2_numeric(deflate_zero_mode(assemble_gbpiac(net, g, B_in=B)))
        assert lo - 1e-10 <= num <= hi + 1e-10


def test_bounds_hold_for_every_selector():
    # the eigenvalue sandwich only uses tr(B' Z B) with Z PSD, so it brackets
    # the spread and total-input norms just as well
    rng = np.random.default_rng(23)
    net, comm = ring_net(5, k=0.9)
    spec = spectral_decompose(build_laplacian(net))
    g = GainSchedule.analytic(1.1, 0.7)
    for _ in range(4):
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        B = Q @ np.diag(rng.uniform(0.4, 2.5, size=5)) @ Q.T
        B = 0.5 * (B + B.T)
        for sel in (OM, U, SP, US):
            base = h2_dpiac_analytic(spec, 1.0, 1.0, 1.1, 0.7, sel).value
            lo, hi = h2_bounds_general_B(base, B)
            num = h2_numeric(deflate_zero_mode(
                assemble_dpiac(net, comm, g, B_in=B, selector=sel)))
            assert lo - 1e-9 * max(1, hi) <= num <= hi + 1e-9 * max(1, hi)


def test_modal_matches_dense_with_general_B():
    rng = np.random.default_rng(31)
    net, comm = ring_net(4, k=1.7)
    spec = spectral_decompose(build_laplacian(net))
    g = GainSchedule.analytic(0.6, 2.0)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    B = Q @ np.diag(rng.uniform(0.5, 2.0, size=4)) @ Q.T
    B = 0.5 * (B + B.T)
    for sel in (OM, U, SP, US):
        sys = assemble_dpiac(net, comm, g, B_in=B, selector=sel)
        dense = h2_numeric(deflate_zero_mode(sys))
        modal, _ = h2_modal(sys, spec)
        assert abs(modal - dense) <= 1e-9 * max(1.0, abs(dense))


def test_bounds_reject_bad_B():
    with pytest.raises(DomainError):
        h2_bounds_general_B(1.0, np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        h2_bounds_general_B(1.0, np.diag([1.0, -0.5]))


def test_limit_k1_worked_point():
    net, _ = make_machine_net(2, edges=[(1, 2, 1.0)])
    spec = spectral_decompose(build_laplacian(net))
    lim = limit_k1_infinity(spec, 1.0, 1.0, 1.0)
    assert lim == pytest.approx(2.0 / 9.0, rel=1e-15)
    big = h2_dpiac_analytic(spec, 1.0, 1.0, 1e6, 1.0, OM).value
    assert abs(big - lim) <= 1e-3 * lim


def test_limit_k1_vanishes_without_coordination():
    net, _ = ring_net(4)
    spec = spectral_decompose(build_laplacian(net))
    assert limit_k1_infinity(spec, 1.0, 1.0, 0.0) == 0.0


def test_limit_large_eigenvalue_saturates():
    # a single very stiff mode contributes 1/(2 m d)
    class FakeSpec:
        eigenvalues = np.array([0.0, 1e9])
        n = 2
    val = limit_k1_infinity(FakeSpec(), 2.0, 3.0, 1.0)
    assert val == pytest.approx(1.0 / (2 * 2.0 * 3.0), rel=1e-6)


def test_compare_laws_convergence():
    net, _ = ring_net(5, k=1.0)
    spec = spectral_decompose(build_laplacian(net))
    rows = compare_laws(spec, 1.0, 1.0, 0.8, [1.0, 10.0, 100.0, 1e6])
    for row in rows:
        assert row["u_gap"] > 0
    gaps_u = [row["u_gap"] for row in rows]
    assert all(b < a for a, b in zip(gaps_u, gaps_u[1:]))
    last = rows[-1]
    assert abs(last["omega_gap"]) <= 1e-3 * last["gb_omega"]
    assert abs(last["u_gap"]) <= 1e-3 * last["gb_u"]


def test_spread_norm_decreasing_in_k3():
    net, _ = ring_net(5, k=1.0)
    spec = spectral_decompose(build_laplacian(net))
    vals = [h2_dpiac_analytic(spec, 1.0, 1.0, 0.8, k3, SP).value
            for k3 in (1.0, 10.0, 100.0)]
    assert vals[0] > vals[1] > vals[2]


def test_u_norm_increasing_in_k1():
    net, _ = ring_net(4, k=1.3)
    spec = spectral_decompose(build_laplacian(net))
    for k3 in (0.0, 1.0, 5.0):
        vals = [h2_dpiac_analytic(spec, 1.0, 1.0, k1, k3, U).value
                for k1 in (0.2, 0.4, 0.8, 1.6, 3.2)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_u_norm_decreasing_in_k3():
    net, _ = ring_net(4, k=1.3)
    spec = spectral_decompose(build_laplacian(net))
    vals = [h2_dpiac_analytic(spec, 1.0, 1.0, 0.8, k3, U).value
            for k3 in (1.0, 2.0, 5.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_decpiac_inverse_k1_scaling():
    net, _ = ring_net(5, k=1.0)
    spec = spectral_decompose(build_laplacian(net))
    scaled = [k1 * h2_dpiac_analytic(spec, 1.0, 1.0, k1, 0.0, OM).value
              for k1 in (1.0, 10.0, 100.0, 1000.0)]
    assert abs(scaled[-1] - scaled[-2]) <= 0.05 * scaled[-1]


def test_analyze_report_homogeneous():
    net, comm = ring_net(3, k=1.2)
    g = GainSchedule.analytic(1.0, 1.0)
    rep = analyze(net, comm, g, "dpiac", OM, with_limits=True)
    assert rep.homogeneous
    assert rep.analytic is not None
    assert rep.rel_gap <= 1e-8
    assert rep.limit_k1 is not None and rep.limit_k3 is not None


def test_analyze_non_analytic_gains():
    net, comm = ring_net(3)
    rep = analyze(net, comm, GainSchedule(k1=1.0, k2=5.0, k3=1.0), "dpiac", OM)
    assert rep.analytic is None        # k2 != 4 k1 has no closed form
    assert rep.numeric > 0


@pytest.mark.parametrize("B_in, has_bounds", [
    (np.diag([0.5, 1.0, 2.0]), True),
    (np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), False),
    (np.diag([1.0, -1.0, 1.0]), False),
], ids=["spd", "non-symmetric", "indefinite"])
def test_analyze_bounds_only_for_spd_input(B_in, has_bounds):
    net, comm = ring_net(3)
    rep = analyze(net, comm, GainSchedule.analytic(1.0, 1.0), "dpiac", OM, B_in=B_in)
    assert rep.numeric > 0
    assert rep.analytic is None        # the closed form is for B = I
    if has_bounds:
        lo, hi = rep.bounds
        assert lo <= rep.numeric * (1 + 1e-10) and rep.numeric <= hi * (1 + 1e-10)
    else:
        assert rep.bounds is None


def test_analyze_heterogeneous_numeric_only():
    net, comm = make_machine_net(3, m=[1.0, 2.0, 0.5], d=[0.4, 1.0, 0.9],
                                 edges=[(1, 2, 1.0), (2, 3, 2.0)])
    rep = analyze(net, comm, GainSchedule.analytic(1.0, 1.0), "dpiac", OM)
    assert not rep.homogeneous
    assert rep.analytic is None
    assert rep.numeric > 0


def test_analyze_decpiac_is_k3_zero():
    net, comm = ring_net(3)
    g = GainSchedule.analytic(1.0, 5.0)
    rep_dec = analyze(net, comm, g, "decpiac", U)
    spec = spectral_decompose(build_laplacian(net))
    assert rep_dec.analytic == pytest.approx(
        h2_dpiac_analytic(spec, 1.0, 1.0, 1.0, 0.0, U).value)
