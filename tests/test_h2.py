import logging
import re
import warnings

import numpy as np
import pytest

import scipy.linalg

from piac import (LAWS, CommunicationGraph, DomainError, GainSchedule,
                  OutputSelector, ShapeError, SolverAccuracyError,
                  UnstableSystem, UnsupportedForModalPath, analyze, assemble,
                  assemble_dpiac, assemble_gbpiac, build_laplacian,
                  bundled_case_path, compare_laws, deflate_zero_mode, grammians,
                  h2_bounds_general_B, h2_dpiac_analytic, h2_gbpiac_analytic,
                  h2_modal, h2_norms, limit_k1_infinity, load_case,
                  lyapunov_solve, output_matrix, spectral_decompose)
from piac.h2 import _SchurForm, _dpiac_mode
from conftest import (machine_bus_input, make_machine_net, random_homogeneous,
                      ring_net)

OM = OutputSelector.FREQUENCY_DEVIATION
U = OutputSelector.CONTROL_INPUT
US = OutputSelector.TOTAL_CONTROL_INPUT
SP = OutputSelector.MARGINAL_COST_SPREAD
SELECTORS = (OM, U, US, SP)


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


def test_schur_moduli_do_not_overflow():
    # a pair at -1 +- 1e300 i and a real mode at -1e300: the spectral radius
    # is read without squaring, and sets the rounding margin the message names
    A = scipy.linalg.block_diag([[-1.0, 1e300], [-1e300, -1.0]], [[-1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnstableSystem, match=r"not below -1\.000e\+288"):
            lyapunov_solve(A, np.eye(3))


def test_lyapunov_rejects_nonsymmetric_rhs():
    with pytest.raises(ShapeError):
        lyapunov_solve(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_lyapunov_zero_rhs(monkeypatch):
    # zeros come back before anything is factored, so even for unstable A
    def refuse(*args, **kwargs):
        raise AssertionError("a zero RHS needs no factorization")

    monkeypatch.setattr(scipy.linalg, "schur", refuse)
    for A in (-np.eye(3), np.eye(3)):
        assert np.array_equal(lyapunov_solve(A, np.zeros((3, 3))), np.zeros((3, 3)))


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


def test_schur_spectrum_matches_eigvals():
    # the abscissa and the spectral radius are read off the 1x1 and 2x2
    # diagonal blocks of the real Schur form, without an eigenvalue solve;
    # dense random matrices have complex pairs, shifted to abscissa -1
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 8, 17, 40):
        for _ in range(5):
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(n)
            A *= np.exp(rng.uniform(-3, 3))
            form = _SchurForm(A)
            eigs = np.linalg.eigvals(A)
            assert form.abscissa == pytest.approx(np.max(eigs.real), rel=1e-12)
            assert form.radius == pytest.approx(np.max(np.abs(eigs)), rel=1e-12)
            if n >= 5:
                assert np.any(eigs.imag != 0)


@pytest.mark.parametrize("decay, unstable", [(5e-12, True), (2e-11, False)])
def test_unstable_margin_read_off_the_schur_form(decay, unstable):
    # a lightly damped pair of modulus ~10, rotated out of block form: the
    # margin is 1e-12 * max(1, max |lambda|) = 1e-11
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    A = Q @ scipy.linalg.block_diag([[-decay, 10.0], [-10.0, -decay]],
                                    [[-1.0]], [[-3.0]]) @ Q.T
    if unstable:
        with pytest.raises(UnstableSystem,
                           match=r"is not below -1\.000e-11, the rounding margin"):
            lyapunov_solve(A, np.eye(4))
    else:
        try:
            lyapunov_solve(A, np.eye(4))
        except SolverAccuracyError:
            pass                 # this close to the axis the residual may fail


def test_relaxed_tolerance_accepts_a_badly_conditioned_loop(caplog):
    # dpiac at k1 = 1e-8, k3 = 1e-3 on homogeneous10: the condition estimate
    # is about 2e11 and the residual about 2e-8, between the strict 1e-9 and
    # the relaxed 1e-6; the norm still meets the closed form
    net, comm, _, _ = load_case(bundled_case_path("homogeneous10"))
    with caplog.at_level(logging.INFO, logger="piac.h2"):
        rep = analyze(net, comm, GainSchedule.analytic(1e-8, 1e-3), "dpiac", OM)
    relaxed = [r for r in caplog.records
               if r.getMessage().startswith("lyapunov solve accepted at relaxed tolerance")]
    assert relaxed and all(r.levelno == logging.INFO for r in relaxed)
    assert rep.numeric == pytest.approx(rep.analytic, rel=1e-8)


def test_relaxed_tolerance_needs_a_large_condition_estimate():
    # a non-normal block (coupling 2000) puts the residual's round-off floor
    # above 1e-9 but under the relaxed 1e-6; the spectrum is well separated
    # (estimate 3), so the relaxed bound does not apply
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    A = Q @ np.array([[-1.0, 2e3, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
                      [0.0, 0.0, -2.0, 0.0], [0.0, 0.0, 0.0, -3.0]]) @ Q.T
    with pytest.raises(SolverAccuracyError, match=r"condition estimate 3\.00e\+00") as err:
        lyapunov_solve(A, np.eye(4))
    residual = float(re.search(r"residual (\S+) relative", str(err.value)).group(1))
    assert 1e-9 < residual <= 1e-6


@pytest.mark.parametrize("case, k1, k3, factors", [
    # tiny gains, small A: the floor is large because X is
    ("ring3", 1e-7, 0.5, "= 1.6e-09 relative, with max|A| 1.74e+00 and max|X| 4.17e+06"),
    # large gains, large A
    ("ieee39-like", 1e4, 1e4, "= 3.3e-07 relative, with max|A| 3.47e+09 and max|X| 5.88e-01"),
])
def test_refused_solve_names_both_factors_of_the_round_off(case, k1, k3, factors):
    if case == "ring3":
        net, comm = ring_net(3)
        B_in = None
    else:
        net, comm, _, _ = load_case(bundled_case_path(case))
        B_in = machine_bus_input(net)
    with pytest.raises(SolverAccuracyError) as err:
        analyze(net, comm, GainSchedule.analytic(k1, k3), "dpiac", OM, B_in=B_in)
    message = str(err.value)
    assert message.endswith("round-off in the residual scales with "
                            f"eps*max|A|*max|X| {factors}")
    assert "gains" not in message


def test_dual_solve_on_non_normal_matrix():
    # one factorization of A also solves A X + X A^T + R = 0
    rng = np.random.default_rng(8)
    n = 12
    A = -np.diag(rng.uniform(0.5, 3.0, n)) + np.triu(rng.normal(scale=3.0, size=(n, n)), 1)
    R = rng.normal(size=(n, 3))
    RHS = R @ R.T
    form = _SchurForm(A)
    X = lyapunov_solve(A.T, RHS, form.dual())
    assert np.abs(A @ X + X @ A.T + RHS).max() <= 1e-9 * np.abs(RHS).max()
    Y = lyapunov_solve(A, RHS, form)
    assert np.abs(Y @ A + A.T @ Y + RHS).max() <= 1e-9 * np.abs(RHS).max()


def test_one_schur_factorization_per_loop(monkeypatch):
    # both Grammians, the Hurwitz check and the refinement rounds share one
    # factorization of A; no eigenvalue solve runs
    calls = []
    real = scipy.linalg.schur

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the solve reads the spectrum off the Schur form")

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    net, comm = ring_net(6, k=1.3, m=0.7, d=2.0)
    for law in LAWS:
        loop = assemble(net, comm, law, GainSchedule.analytic(1.5, 0.5))
        sys = deflate_zero_mode(loop)
        calls.clear()
        grammians(sys, [output_matrix(loop, OM) @ sys.basis])
        assert len(calls) == 1, law
        calls.clear()
        h2_norms(loop, SELECTORS)
        assert len(calls) == 1, law


@pytest.mark.parametrize("law", LAWS)
def test_h2_norms_match_one_loop_per_selector(law):
    # one call with every selector gives each the number of a call with that
    # selector alone, on a homogeneous ring and, through the machine buses,
    # on ieee39-like
    net, comm, _, _ = load_case(bundled_case_path("ieee39-like"))
    ring, ring_comm = ring_net(5, k=1.3)
    g = GainSchedule(k1=0.8, k2=3.2, k3=2.0)
    for net, comm, B_in in ((ring, ring_comm, None), (net, comm, machine_bus_input(net))):
        got = h2_norms(assemble(net, comm, law, g, B_in), SELECTORS)
        for sel, value in zip(SELECTORS, got):
            want, = h2_norms(assemble(net, comm, law, g, B_in), [sel])
            assert value == pytest.approx(want, rel=1e-12, abs=1e-14), sel


@pytest.mark.parametrize("law", LAWS)
def test_h2_norms_reads_any_output_of_the_default_loop(law, monkeypatch):
    # the loop under the default input carries no output: the outputs that
    # exist are read off it, and the infinite omega norm is refused by name
    # before the loop is deflated
    net, comm, g, _ = load_case(bundled_case_path("ieee39-like"))
    loop = assemble(net, comm, law, g)
    got = h2_norms(loop, [U, US, SP])
    assert got == [analyze(net, comm, g, law, sel).numeric for sel in (U, US, SP)]
    freq = ", ".join(str(i) for i in net.freq_ids)
    assert len(net.freq_ids) == 19

    def refuse(*args, **kwargs):
        raise AssertionError("the refused output is read before the deflation")

    monkeypatch.setattr(scipy.linalg, "qr", refuse)
    for selectors in ([OM], [U, OM]):
        with pytest.raises(DomainError, match=rf"bus\(es\) {freq};"):
            h2_norms(loop, selectors)


def test_grammians_require_deflation():
    net, _ = ring_net(3)
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    with pytest.raises(UnstableSystem):
        # undeflated: the phase mode is marginal
        grammians(sys, [output_matrix(sys, OM)])


def test_decpiac_spread_needs_comm():
    from piac import assemble_decpiac
    net, _ = ring_net(3)
    sys = assemble_decpiac(net, GainSchedule.analytic(1.0))
    with pytest.raises(DomainError):
        output_matrix(sys, SP)
    with pytest.raises(DomainError):
        h2_modal(sys, SP)


# --- numeric norms against frozen closed-form values ---------------------------


def test_gbpiac_omega_frozen():
    # (n-1)/(2 m d) + (d + 5 m k1)/(2 m (2 k1 m + d)^2) at n=3, m=2, d=3,
    # k1=0.5 evaluates to 1/6 + 2/25 = 37/150
    net, _ = ring_net(3, m=2.0, d=3.0)
    val, = h2_norms(assemble_gbpiac(net, GainSchedule.analytic(0.5)), [OM])
    assert val == pytest.approx(37.0 / 150.0, abs=1e-8)


def test_gbpiac_u_frozen():
    for n in (2, 5):
        net, _ = ring_net(n)
        sys = assemble_gbpiac(net, GainSchedule.analytic(0.5))
        assert h2_norms(sys, [U])[0] == pytest.approx(0.25, abs=1e-8)


def test_gbpiac_us_frozen():
    net, _ = ring_net(4)
    sys = assemble_gbpiac(net, GainSchedule.analytic(1.0))
    assert h2_norms(sys, [US])[0] == pytest.approx(2.0, abs=1e-8)


def test_grammian_duality():
    net, comm = ring_net(4, k=1.3, m=0.7, d=2.0)
    loop = assemble_dpiac(net, comm, GainSchedule.analytic(1.5, 0.5))
    sys = deflate_zero_mode(loop)
    C = output_matrix(loop, OM) @ sys.basis
    g = grammians(sys, [C])
    via_o = np.trace(sys.B.T @ g.observabilities[0] @ sys.B)
    via_c = np.trace(C @ g.controllability @ C.T)
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
    assert _dpiac_mode(2.0, 1.0, 1.0, 1.0, 1.0) == (150.0, 50.0, 250.0)


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
                    b1, b2, e = _dpiac_mode(lam, m, d, k1, k3)
                    assert e > 0 and b1 > 0 and b2 > 0


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
            gb_num = h2_norms(assemble_gbpiac(net, g), [sel])[0]
            gb_ana = h2_gbpiac_analytic(n, m, d, k1, sel).value
            assert abs(gb_num - gb_ana) <= 1e-8 * max(1.0, abs(gb_num))
            dp_num = h2_norms(assemble_dpiac(net, comm, g), [sel])[0]
            dp_ana = h2_dpiac_analytic(spec, m, d, k1, k3, sel).value
            assert abs(dp_num - dp_ana) <= 1e-8 * max(1.0, abs(dp_num))


def test_modal_matches_dense():
    rng = np.random.default_rng(55)
    for _ in range(5):
        net, comm, m, d = random_homogeneous(rng, n=int(rng.integers(2, 7)))
        g = GainSchedule.analytic(float(np.exp(rng.uniform(np.log(0.1), np.log(10)))),
                                  float(rng.uniform(0, 10)))
        for sel in (OM, U, US, SP):
            sys = assemble_dpiac(net, comm, g)
            dense = h2_norms(sys, [sel])[0]
            modal, per_mode = h2_modal(sys, sel)
            assert abs(modal - dense) <= 1e-9 * max(1.0, abs(dense))
            assert len(per_mode) == net.n_nodes


@pytest.mark.parametrize("law", ["decpiac", "dpiac"])
def test_modal_matches_dense_without_consensus(law):
    # decpiac, and dpiac at k3 = 0, leave each nonzero mode a 4-state block
    # with one unreachable marginal direction, which the modal route
    # projects out on its own
    from piac.closedloop import modal_decouple

    net, comm, gains, _ = load_case(bundled_case_path("homogeneous10"))
    sys = assemble(net, comm, law, GainSchedule.analytic(gains.k1, 0.0))
    selectors = (OM, U, US, SP)
    for sel, dense in zip(selectors, h2_norms(sys, selectors)):
        blocks = modal_decouple(sys, sel)
        assert sum(b.eigenvalue != 0.0 and b.dim == 4 and b.A[2, 3] == 0.0
                   for b in blocks) == net.n_nodes - 1
        modal, _ = h2_modal(sys, sel)
        assert abs(modal - dense) <= 1e-9 * max(1.0, abs(dense))


def test_modal_route_of_dpiac_without_consensus_reads_no_comm_graph():
    # at k3 = 0 the consensus term is zero and the loop is decpiac's, so a
    # communication graph off the grid leaves the modal route open
    net, _, gains, _ = load_case(bundled_case_path("homogeneous10"))
    comm = CommunicationGraph(weights=tuple(
        (i, j, 1.0 if (i, j) == (3, 8) else k) for i, j, k in net.edges))
    g = GainSchedule.analytic(gains.k1, 0.0)
    for sel in (OM, U, US):
        dp = h2_modal(assemble(net, comm, "dpiac", g), sel)
        dec = h2_modal(assemble(net, comm, "decpiac", g), sel)
        assert dp[0] == dec[0] and np.array_equal(dp[1], dec[1])
    for k3, sel in ((1.0, OM), (0.0, SP)):
        loop = assemble(net, comm, "dpiac", GainSchedule.analytic(gains.k1, k3))
        with pytest.raises(UnsupportedForModalPath):
            h2_modal(loop, sel)


def test_modal_per_mode_matches_analytic():
    net, comm = ring_net(5, k=1.6, m=1.2, d=0.8)
    g = GainSchedule.analytic(0.7, 3.0)
    spec = spectral_decompose(build_laplacian(net))
    for sel in (OM, U, SP):
        sys = assemble_dpiac(net, comm, g)
        _, per_mode = h2_modal(sys, sel)
        ana = h2_dpiac_analytic(spec, 1.2, 0.8, 0.7, 3.0, sel)
        assert np.allclose(per_mode, ana.per_mode, rtol=1e-8, atol=1e-12)


def test_deflation_preserves_norm():
    # dense deflated solve against the modal route, which removes the zero
    # mode inside its own block instead
    rng = np.random.default_rng(77)
    net, comm, m, d = random_homogeneous(rng, n=5)
    g = GainSchedule.analytic(1.3, 0.9)
    sys = assemble_gbpiac(net, g)
    dense = h2_norms(sys, [OM])[0]
    modal, _ = h2_modal(sys, OM)
    assert abs(dense - modal) <= 1e-9 * max(1.0, abs(dense))


def test_topology_independence_gbpiac():
    # same n, m, d, k1 on a ring and on a star-plus-chords graph
    net_a, _ = ring_net(6, k=0.4, m=1.5, d=0.6)
    net_b, _ = make_machine_net(6, m=1.5, d=0.6,
                                edges=[(1, k, 3.0) for k in range(2, 7)] +
                                      [(2, 5, 0.2)])
    g = GainSchedule.analytic(0.9)
    vals = [h2_norms(assemble_gbpiac(net, g), [OM])[0]
            for net in (net_a, net_b)]
    assert abs(vals[0] - vals[1]) <= 1e-10 * max(1.0, abs(vals[0]))


def test_bounds_identity_and_scaling():
    g_val = 1.7
    assert h2_bounds_general_B(g_val, np.eye(3)) == (g_val, g_val)
    lo, hi = h2_bounds_general_B(g_val, 2.0 * np.eye(3))
    assert lo == pytest.approx(4 * g_val) and hi == pytest.approx(4 * g_val)
    net, _ = ring_net(3)
    g = GainSchedule.analytic(1.0)
    sys = assemble_gbpiac(net, g, B_in=2.0 * np.eye(3))
    base = h2_gbpiac_analytic(3, 1.0, 1.0, 1.0, OM).value
    assert h2_norms(sys, [OM])[0] == pytest.approx(4 * base, rel=1e-9)


def test_bounds_contain_numeric_random_diag():
    rng = np.random.default_rng(9)
    net, _ = ring_net(4, k=1.1)
    g = GainSchedule.analytic(0.8)
    base = h2_gbpiac_analytic(4, 1.0, 1.0, 0.8, OM).value
    for _ in range(5):
        B = np.diag(rng.uniform(0.5, 2.0, size=4))
        lo, hi = h2_bounds_general_B(base, B)
        num = h2_norms(assemble_gbpiac(net, g, B_in=B), [OM])[0]
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
            num = h2_norms(assemble_dpiac(net, comm, g, B_in=B), [sel])[0]
            assert lo - 1e-9 * max(1, hi) <= num <= hi + 1e-9 * max(1, hi)


def test_modal_matches_dense_with_general_B():
    rng = np.random.default_rng(31)
    net, comm = ring_net(4, k=1.7)
    g = GainSchedule.analytic(0.6, 2.0)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    B = Q @ np.diag(rng.uniform(0.5, 2.0, size=4)) @ Q.T
    B = 0.5 * (B + B.T)
    for sel in (OM, U, SP, US):
        sys = assemble_dpiac(net, comm, g, B_in=B)
        dense = h2_norms(sys, [sel])[0]
        modal, _ = h2_modal(sys, sel)
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


@pytest.mark.parametrize("law", LAWS)
def test_total_input_norm_on_mixed_network(law):
    # an oracle apart from the closed forms and the modal blocks: the total
    # input's norm is k1 times the number of unit-noise buses over two on
    # any network, here with load and passive buses and k2 = 4 k1 or not
    net, comm, _, _ = load_case(bundled_case_path("ieee39-like"))
    for B_in, buses in ((None, 39), (machine_bus_input(net), 10)):
        for g in (GainSchedule(k1=0.8, k2=3.2, k3=2.0),
                  GainSchedule(k1=0.5, k2=3.0, k3=1.0)):
            rep = analyze(net, comm, g, law, US, B_in=B_in)
            assert rep.numeric == pytest.approx(g.k1 * buses / 2, rel=1e-10, abs=0)


def _spectrum_of_two():
    net, _ = make_machine_net(2, edges=[(1, 2, 1.0)])
    return spectral_decompose(build_laplacian(net))


@pytest.mark.parametrize("build, error, message", [
    (lambda: lyapunov_solve(np.zeros((2, 3)), np.zeros((2, 3))),
     ShapeError, "A must be square, got (2, 3)"),
    (lambda: lyapunov_solve(-np.eye(2), np.eye(3)),
     ShapeError, "RHS must match A: (3, 3) vs (2, 2)"),
    (lambda: h2_dpiac_analytic(_spectrum_of_two(), 1.0, 1.0, 1.0, -1.0, OM),
     DomainError, "k3 must be non-negative and finite, got -1.0"),
    (lambda: limit_k1_infinity(_spectrum_of_two(), 1.0, 1.0, -0.5),
     DomainError, "k3 must be non-negative and finite, got -0.5"),
    (lambda: h2_bounds_general_B(1.0, np.ones((2, 3))),
     DomainError, "B must be square, got (2, 3)"),
], ids=["A-not-square", "RHS-shape", "analytic-k3", "limit-k3", "B-not-square"])
def test_outside_input_is_refused(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
