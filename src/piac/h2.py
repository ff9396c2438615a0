"""Squared H2 norms of the closed-loop laws, numeric and closed-form.

The numeric route solves the two Lyapunov equations

    Qo A + A^T Qo + C^T C = 0        (observability Grammian)
    A Qc + Qc A^T + B B^T = 0        (controllability Grammian)

on one real Schur factorization of A and returns ``tr(B^T Qo B)``,
cross-checked against ``tr(C Qc C^T)``. :func:`h2_norms` is this dense
route: it reads each requested output off one loop, and as Qc does not
depend on the output, the outputs share one Qc and take one Qo each. Under
unit white-noise input this trace equals the stationary output variance
``lim E[y^T y]``, which is what the stochastic simulations estimate.

On homogeneous networks two more routes exist: summing small per-mode
Lyapunov solves over the decoupled blocks (:func:`h2_modal`), and evaluating
the closed-form expressions in the Laplacian eigenvalues. All routes agree to
solver accuracy; the test suite leans on that redundancy. :func:`analyze`
reports the dense value and, where they apply, the closed forms; the modal
route is the tests' independent check on both.

Closed forms, with k2 = 4 k1 and unit-strength disturbances at every node:

* gather-broadcast frequency norm  (n-1)/(2 m d) + (d + 5 m k1)/(2 m (2 k1 m + d)^2),
  split into the relative-oscillation part (primary control's job) and the
  overall-deviation part (secondary control's job); control-input norm k1/2;
  total-input norm k1 n / 2.
* distributed law: per nonzero eigenvalue a rational contribution
  b1/e (frequency), b2/e (input), lambda^2 b2/e (marginal-cost spread), with
  the same zero-mode terms as the gather-broadcast law.

The spread expression here carries lambda_i^2 * b2_i / e_i with no extra
inertia factor: the spread output row is exactly lambda_i times the input
output row in modal coordinates, so its norm contribution scales by
lambda_i^2; anything else fails the Grammian cross-check.
"""

import copy
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .closedloop import (ModeBlock, OutputSelector, StateSpace, assemble,
                         deflate_zero_mode, modal_decouple, output_matrix)
from .controllers import GainSchedule, law_homogeneity
from .errors import DomainError, ShapeError, SolverAccuracyError, UnstableSystem
from .netmodel import (CommunicationGraph, PowerNetwork, SpectralDecomposition,
                       _homogeneous_spectrum, _is_symmetric)

__all__ = [
    "Grammians",
    "AnalyticH2",
    "H2Report",
    "lyapunov_solve",
    "grammians",
    "h2_norms",
    "h2_modal",
    "h2_gbpiac_analytic",
    "h2_dpiac_analytic",
    "h2_bounds_general_B",
    "limit_k1_infinity",
    "compare_laws",
    "analyze",
]

log = logging.getLogger(__name__)


_LYAP_TOL = 1e-9


class _SchurForm:
    """Real Schur form ``M = U T U^T`` of a square matrix, factored on
    construction, with the spectral abscissa and spectral radius read off
    the diagonal blocks of ``T``. :meth:`dual` reads the form of ``M^T``
    off the same factorization, so one factorization solves both
    Grammians of a loop.
    """

    def __init__(self, M: np.ndarray):
        T, U = scipy.linalg.schur(M, output="real")
        # LAPACK leaves each complex pair in a standardized 2x2 block
        # [[a, b], [c, a]] with eigenvalues a +- i sqrt(-b c), and zeros
        # below the diagonal everywhere else; the moduli are taken
        # without squaring, which would overflow at huge entries
        re = np.diag(T)
        im = np.zeros(len(T))
        pair = np.flatnonzero(np.diag(T, -1))
        im[pair] = im[pair + 1] = (np.sqrt(np.abs(T[pair + 1, pair]))
                                   * np.sqrt(np.abs(T[pair, pair + 1])))
        self.T, self.U = T, U
        self.abscissa = float(re.max())
        self.radius = float(np.hypot(re, im).max())

    def dual(self) -> "_SchurForm":
        """The form of the transposed matrix, from the same factorization:
        with ``J`` the order-reversing permutation, ``M^T = (U J) (J T^T J)
        (U J)^T``, and ``J T^T J`` is upper quasi-triangular again."""
        form = copy.copy(self)
        form.T = np.asfortranarray(self.T[::-1, ::-1].T)
        form.U = np.asfortranarray(self.U[:, ::-1])
        return form

    def solve(self, R: np.ndarray) -> np.ndarray:
        """``X`` with ``X A + A^T X + R = 0``, ``A`` the factored matrix: in
        Schur coordinates ``Y = U^T X U`` this is the triangular Sylvester
        equation ``T^T Y + Y T = -F``."""
        T, U = self.T, self.U
        F = U.T @ R @ U
        Y, scale, info = scipy.linalg.lapack.dtrsyl(T, T, -F, trana="T")
        if info < 0:
            raise ValueError(f"dtrsyl: illegal value in argument {-info}")
        return U @ (Y / scale) @ U.T


def lyapunov_solve(A, RHS, schur: _SchurForm | None = None) -> np.ndarray:
    """Solve X A + A^T X + RHS = 0 for symmetric PSD RHS and Hurwitz A.

    One Schur-based (Bartels-Stewart) solve at every dimension, modal
    blocks and whole closed loops alike: ``A`` is factored once, the
    Hurwitz check and the condition estimate are read off the factor, and
    the solve and its iterative refinement rounds are triangular Sylvester
    solves on it. ``schur`` passes in the factorization of ``A`` that other
    solves share (:func:`grammians` shares one between all its Grammians);
    a zero RHS returns zeros before anything is factored or checked.

    The residual must come in under ``1e-9 * max |RHS|``; if the Lyapunov
    operator is badly conditioned (estimate above 1e8) the bound is relaxed
    to 1e-6 and the condition estimate is logged.
    """
    A = np.asarray(A, dtype=float)
    RHS = np.asarray(RHS, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"A must be square, got {A.shape}")
    if RHS.shape != A.shape:
        raise ShapeError(f"RHS must match A: {RHS.shape} vs {A.shape}")
    rhs_scale = float(np.abs(RHS).max()) if RHS.size else 0.0
    if rhs_scale == 0.0:
        return np.zeros_like(A)
    if not _is_symmetric(RHS):
        raise ShapeError("RHS must be symmetric")

    if schur is None:
        schur = _SchurForm(A)
    abscissa = schur.abscissa
    # a mode on (or within rounding of) the imaginary axis has no Grammian
    margin = 1e-12 * max(1.0, schur.radius)
    if abscissa >= -margin:
        raise UnstableSystem(
            f"spectral abscissa {abscissa:.3e} is not below -{margin:.3e}, "
            "the rounding margin 1e-12 max(1, spectral radius); deflate the "
            "zero mode or fix the gains before solving")

    X = schur.solve(RHS)
    for _ in range(2):
        R = X @ A + A.T @ X + RHS
        res = float(np.abs(R).max())
        if res <= 0.1 * _LYAP_TOL * rhs_scale:
            break
        X = X + schur.solve(R)
    X = 0.5 * (X + X.T)

    res = float(np.abs(X @ A + A.T @ X + RHS).max())
    if res > _LYAP_TOL * rhs_scale:
        kappa = float(schur.radius / max(-abscissa, 1e-300))
        if kappa > 1e8 and res <= 1e-6 * rhs_scale:
            log.info("lyapunov solve accepted at relaxed tolerance: residual "
                     "%.3e (relative), condition estimate %.3e", res / rhs_scale, kappa)
        else:
            a_scale = float(np.abs(A).max())
            x_scale = float(np.abs(X).max())
            floor = np.finfo(float).eps * a_scale * x_scale
            # the floor is a product: a large A (large gains) or a large X
            # (a badly damped loop) can each raise it
            raise SolverAccuracyError(
                f"lyapunov residual {res / rhs_scale:.3e} relative exceeds "
                f"{_LYAP_TOL:.1e} (condition estimate {kappa:.2e}); round-off "
                "in the residual scales with eps*max|A|*max|X| "
                f"= {floor / rhs_scale:.1e} relative, with max|A| "
                f"{a_scale:.2e} and max|X| {x_scale:.2e}")
    return X


@dataclass(frozen=True)
class Grammians:
    """Observability Grammians, one per output matrix, and the
    controllability Grammian of a deflated system."""

    observabilities: tuple[np.ndarray, ...]
    controllability: np.ndarray


def grammians(sys: StateSpace, outputs) -> Grammians:
    """The Grammians of ``sys``; requires a deflated (Hurwitz) system.

    ``outputs`` are output matrices in the coordinates of ``sys``, one
    observability Grammian each. ``A`` is factored once, and every solve,
    the controllability one included, runs on that factorization.
    """
    schur = _SchurForm(sys.A)
    Qo = tuple(lyapunov_solve(sys.A, C.T @ C, schur) for C in outputs)
    Qc = lyapunov_solve(sys.A.T, sys.B @ sys.B.T, schur.dual())
    return Grammians(observabilities=Qo, controllability=Qc)


def _cross_checked(sys: StateSpace, C, Qo, Qc) -> float:
    """``tr(B^T Qo B)``, refused unless ``tr(C Qc C^T)`` agrees to 1e-8."""
    via_o = float(np.trace(sys.B.T @ Qo @ sys.B))
    via_c = float(np.trace(C @ Qc @ C.T))
    if abs(via_o - via_c) > 1e-8 * max(1.0, abs(via_o)):
        raise SolverAccuracyError(
            f"grammian traces disagree: {via_o!r} vs {via_c!r}")
    return via_o


def h2_norms(sys: StateSpace, selectors) -> list[float]:
    """Squared H2 norms of the undeflated loop ``sys`` read through each of
    ``selectors``, in order: the dense numeric route.

    Every output matrix is read off the loop
    (:func:`~piac.closedloop.output_matrix`) before anything is solved, so
    an output it refuses fails first. The selectors then share one
    deflation, one Schur factorization and one controllability Grammian,
    with one observability Grammian each; each output is mapped into the
    deflated coordinates by the deflation basis. The observability and
    controllability traces of every norm must agree to 1e-8 relative,
    otherwise :class:`SolverAccuracyError` is raised.
    """
    outputs = [output_matrix(sys, sel) for sel in selectors]
    defl = deflate_zero_mode(sys)
    outputs = [C @ defl.basis for C in outputs]
    g = grammians(defl, outputs)
    return [_cross_checked(defl, C, Qo, g.controllability)
            for C, Qo in zip(outputs, g.observabilities)]


def h2_modal(sys: StateSpace, selector: OutputSelector):
    """Squared H2 norm of the ``selector`` output summed over the decoupled
    per-mode blocks of :func:`~piac.closedloop.modal_decouple`.

    Independent of the dense route: each block is solved on its own 2x2 to
    4x4 Lyapunov equation. Returns ``(value, per_mode)`` with one
    contribution per eigenvalue of the network's Laplacian, ascending.
    """
    per_mode = np.array([_block_norm(blk) for blk in modal_decouple(sys, selector)])
    return float(per_mode.sum()), per_mode


def _block_norm(blk: ModeBlock) -> float:
    blk = blk.drop_marginal_modes()
    X = lyapunov_solve(blk.A, blk.C.T @ blk.C)
    return float(np.trace(blk.B.T @ X @ blk.B))


# --- closed forms ------------------------------------------------------------


def _require_positive(**params):
    for name, val in params.items():
        if not (np.isfinite(val) and val > 0):
            raise DomainError(f"{name} must be positive and finite, got {val}")


def _dpiac_mode(lam: float, m: float, d: float, k1: float,
                k3: float) -> tuple[float, float, float]:
    """``(b1, b2, e)`` of the distributed law's nonzero mode ``lam``."""
    b1 = (lam ** 2 * (4 * k1 ** 2 * k3 * m - 1) ** 2 + 4 * d * m * k1 ** 3
          + k1 * (d + 4 * k1 * m) * (4 * d * lam * k1 * k3 + 5 * lam + 4 * d * k1))
    b2 = (2 * d * k1 ** 3 * (d + 2 * k1 * m) ** 2
          + 2 * lam * k1 ** 4 * m ** 2 * (4 * k1 * k3 * d + 4))
    e = (d * lam ** 2 * (4 * k1 ** 2 * k3 * m - 1) ** 2
         + 16 * d * lam * k1 ** 4 * k3 * m ** 2 + d ** 2 * lam * k1
         + 4 * k1 * (d + 2 * k1 * m) ** 2 * (d * k1 + lam + d * lam * k1 * k3))
    return b1, b2, e


@dataclass(frozen=True)
class AnalyticH2:
    """Closed-form squared norm with its per-mode breakdown.

    For the frequency output, ``overall`` is the zero-mode term (suppressed
    by the secondary loop, shrinks with k1) and ``relative`` the sum over
    oscillation modes (owned by the primary loop).
    """

    value: float
    per_mode: np.ndarray
    overall: float | None = None
    relative: float | None = None


def _zero_mode(n: int, m: float, d: float, k1: float, selector: OutputSelector) -> float:
    """The zero mode's term of the ``selector`` norm: the same under every
    law, as the aggregate dynamics cannot see the allocation."""
    if selector is OutputSelector.FREQUENCY_DEVIATION:
        return (d + 5 * m * k1) / (2 * m * (2 * k1 * m + d) ** 2)
    if selector is OutputSelector.CONTROL_INPUT:
        return k1 / 2
    if selector is OutputSelector.TOTAL_CONTROL_INPUT:
        return k1 * n / 2
    return 0.0


def h2_gbpiac_analytic(n: int, m: float, d: float, k1: float,
                       selector: OutputSelector = OutputSelector.FREQUENCY_DEVIATION
                       ) -> AnalyticH2:
    """Closed-form squared norms of the gather-broadcast law (B = I, k2 = 4 k1).

    The frequency norm is topology independent: only n and the uniform
    (m, d, k1) enter.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n}")
    _require_positive(m=m, d=d, k1=k1)
    per_mode = np.zeros(n)
    per_mode[0] = zero = _zero_mode(n, m, d, k1, selector)
    if selector is OutputSelector.FREQUENCY_DEVIATION:
        per_mode[1:] = 1.0 / (2 * m * d)
        return AnalyticH2(value=float(per_mode.sum()), per_mode=per_mode,
                          overall=zero, relative=(n - 1) / (2 * m * d))
    return AnalyticH2(value=float(per_mode.sum()), per_mode=per_mode)


def h2_dpiac_analytic(spectral: SpectralDecomposition, m: float, d: float,
                      k1: float, k3: float,
                      selector: OutputSelector = OutputSelector.FREQUENCY_DEVIATION
                      ) -> AnalyticH2:
    """Closed-form squared norms of the distributed law (B = I, k2 = 4 k1).

    k3 = 0 gives the decentralized law. Contributions come per Laplacian
    eigenvalue; the zero mode carries the same terms as the gather-broadcast
    law (the aggregate dynamics cannot see the coordination).
    """
    _require_positive(m=m, d=d, k1=k1)
    if k3 < 0 or not np.isfinite(k3):
        raise DomainError(f"k3 must be non-negative and finite, got {k3}")
    n = spectral.n
    modes = [(lam, *_dpiac_mode(lam, m, d, k1, k3))
             for lam in map(float, spectral.eigenvalues[1:])]
    per_mode = np.zeros(n)
    per_mode[0] = zero = _zero_mode(n, m, d, k1, selector)
    overall = relative = None
    if selector is OutputSelector.FREQUENCY_DEVIATION:
        per_mode[1:] = [b1 / e / (2 * m) for _, b1, _, e in modes]
        overall, relative = zero, float(per_mode[1:].sum())
    elif selector is OutputSelector.CONTROL_INPUT:
        per_mode[1:] = [b2 / e for _, _, b2, e in modes]
    elif selector is OutputSelector.MARGINAL_COST_SPREAD:
        per_mode[1:] = [lam ** 2 * b2 / e for lam, _, b2, e in modes]
    return AnalyticH2(value=float(per_mode.sum()), per_mode=per_mode,
                      overall=overall, relative=relative)


def h2_bounds_general_B(analytic_value_at_identity: float, B) -> tuple[float, float]:
    """Interval bracketing the norm when disturbances enter through B != I.

    ``B`` must be symmetric positive definite (the eigenvalue sandwich
    argument needs an orthogonal diagonalization). The numeric norm with
    that B is guaranteed to land inside the returned interval.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DomainError(f"B must be square, got {B.shape}")
    if not _is_symmetric(B):
        raise DomainError("B must be symmetric")
    gam = np.linalg.eigvalsh(B)
    if gam[0] <= 0:
        raise DomainError(f"B must be positive definite (min eigenvalue {gam[0]:.3e})")
    g = analytic_value_at_identity
    return (float(gam[0] ** 2 * g), float(gam[-1] ** 2 * g))


def limit_k1_infinity(spectral: SpectralDecomposition, m: float, d: float,
                      k3: float) -> float:
    """Frequency-norm floor of the distributed law as k1 grows without bound.

    With coordination active the oscillation modes saturate at
    lambda^2 k3^2 / (d lambda^2 k3^2 + d (1 + 2 lambda k3)) each; at k3 = 0
    the floor is zero, matching the O(1/k1) decay of the decentralized law.
    """
    _require_positive(m=m, d=d)
    if k3 < 0 or not np.isfinite(k3):
        raise DomainError(f"k3 must be non-negative and finite, got {k3}")
    lam = spectral.eigenvalues[1:]
    num = lam ** 2 * k3 ** 2
    den = d * lam ** 2 * k3 ** 2 + d * (1.0 + 2.0 * lam * k3)
    return float(np.sum(num / den)) / (2 * m)


def compare_laws(spectral: SpectralDecomposition, m: float, d: float, k1: float,
                 k3_grid) -> list[dict]:
    """Gather-broadcast vs distributed norms over a k3 grid.

    Rows carry both laws' frequency and input norms plus the gaps
    (distributed minus gather-broadcast). The input gap is positive at every
    finite k3 and shrinks as coordination strengthens.
    """
    n = spectral.n
    gb_om = h2_gbpiac_analytic(n, m, d, k1, OutputSelector.FREQUENCY_DEVIATION).value
    gb_u = h2_gbpiac_analytic(n, m, d, k1, OutputSelector.CONTROL_INPUT).value
    rows = []
    for k3 in k3_grid:
        dp_om = h2_dpiac_analytic(spectral, m, d, k1, k3,
                                  OutputSelector.FREQUENCY_DEVIATION).value
        dp_u = h2_dpiac_analytic(spectral, m, d, k1, k3,
                                 OutputSelector.CONTROL_INPUT).value
        rows.append({"k3": float(k3),
                     "gb_omega": gb_om, "dpiac_omega": dp_om,
                     "omega_gap": dp_om - gb_om,
                     "gb_u": gb_u, "dpiac_u": dp_u,
                     "u_gap": dp_u - gb_u})
    return rows


# --- orchestration -----------------------------------------------------------


@dataclass(frozen=True)
class H2Report:
    """Everything one analysis run produced, analytic pieces when available."""

    law: str
    selector: str
    numeric: float
    analytic: float | None = None
    rel_gap: float | None = None
    bounds: tuple[float, float] | None = None
    limit_k1: float | None = None
    limit_k3: float | None = None
    homogeneous: bool = False


def analyze(net: PowerNetwork, comm: CommunicationGraph | None,
            gains: GainSchedule, law: str,
            selector: OutputSelector = OutputSelector.FREQUENCY_DEVIATION,
            B_in=None, with_limits: bool = False) -> H2Report:
    """One-stop squared-norm analysis for one (law, selector) pair.

    Always computes the dense numeric value, through :func:`h2_norms` with
    the one selector. On homogeneous networks with
    k2 = 4 k1 it adds the closed form and (if asked) the k1/k3 limits, or,
    with an explicit symmetric positive-definite ``B_in``, the sandwich
    bounds.
    """
    loop = assemble(net, comm, law, gains, B_in)
    numeric, = h2_norms(loop, (selector,))
    hom = law_homogeneity(net, comm, law, gains,
                          selector is OutputSelector.MARGINAL_COST_SPREAD)

    analytic = rel_gap = None
    limit_k1 = limit_k3 = None
    bounds = None
    if hom.passed and gains.analytic_mode:
        # the k3 the law reads: zero but for dpiac
        m, d, k1, k3 = hom.m, hom.d, gains.k1, loop.model.law.gains.k3
        spectral = _homogeneous_spectrum(net)
        if law == "gbpiac":
            ana = h2_gbpiac_analytic(net.n_nodes, m, d, k1, selector)
        else:
            ana = h2_dpiac_analytic(spectral, m, d, k1, k3, selector)
        if B_in is None:
            analytic = ana.value
            rel_gap = abs(analytic - numeric) / max(1.0, abs(numeric))
        else:
            try:
                bounds = h2_bounds_general_B(ana.value, B_in)
            except DomainError:
                pass            # no bounds unless B_in is symmetric positive definite
        if with_limits:
            if law == "dpiac" and selector is OutputSelector.FREQUENCY_DEVIATION:
                limit_k1 = limit_k1_infinity(spectral, m, d, k3)
            if law == "gbpiac":
                # the overall part vanishes as k1 grows; the relative one stays
                limit_k1 = ana.relative
            if law == "dpiac":
                limit_k3 = h2_gbpiac_analytic(net.n_nodes, m, d, k1, selector).value

    return H2Report(law=law, selector=selector.value, numeric=numeric,
                    analytic=analytic, rel_gap=rel_gap, bounds=bounds,
                    limit_k1=limit_k1, limit_k3=limit_k3,
                    homogeneous=hom.passed)
