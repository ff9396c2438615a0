"""Squared H2 norms of the closed-loop laws, numeric and closed-form.

The numeric route solves the two Lyapunov equations

    Qo A + A^T Qo + C^T C = 0        (observability Grammian)
    A Qc + Qc A^T + B B^T = 0        (controllability Grammian)

and returns ``tr(B^T Qo B)``, cross-checked against ``tr(C Qc C^T)``. Under
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

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .closedloop import (ModeBlock, OutputSelector, StateSpace, assemble,
                         deflate_zero_mode, modal_decouple)
from .controllers import GainSchedule
from .errors import DomainError, ShapeError, SolverAccuracyError, UnstableSystem
from .netmodel import (CommunicationGraph, PowerNetwork, SpectralDecomposition,
                       build_laplacian, spectral_decompose)

__all__ = [
    "Grammians",
    "DpiacModeCoefficients",
    "AnalyticH2",
    "H2Report",
    "lyapunov_solve",
    "grammians",
    "h2_numeric",
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


def lyapunov_solve(A, RHS) -> np.ndarray:
    """Solve X A + A^T X + RHS = 0 for symmetric PSD RHS and Hurwitz A.

    One Schur-based (Bartels-Stewart) solve at every dimension, modal
    blocks and whole closed loops alike, followed by iterative refinement.
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
    if not np.allclose(RHS, RHS.T, rtol=0, atol=1e-12 * max(rhs_scale, 1.0)):
        raise ShapeError("RHS must be symmetric")
    if rhs_scale == 0.0:
        return np.zeros_like(A)

    eigs = np.linalg.eigvals(A)
    abscissa = float(np.max(eigs.real))
    # a mode on (or within rounding of) the imaginary axis has no Grammian
    margin = 1e-12 * max(1.0, float(np.max(np.abs(eigs))))
    if abscissa >= -margin:
        raise UnstableSystem(
            f"spectral abscissa {abscissa:.3e} is not negative; deflate the "
            "zero mode or fix the gains before solving")

    def solve_rhs(R):
        return scipy.linalg.solve_continuous_lyapunov(A.T, -R)

    X = solve_rhs(RHS)
    for _ in range(2):
        R = X @ A + A.T @ X + RHS
        res = float(np.abs(R).max())
        if res <= 0.1 * _LYAP_TOL * rhs_scale:
            break
        X = X + solve_rhs(R)
    X = 0.5 * (X + X.T)

    res = float(np.abs(X @ A + A.T @ X + RHS).max())
    if res > _LYAP_TOL * rhs_scale:
        kappa = float(np.max(np.abs(eigs)) / max(-abscissa, 1e-300))
        if kappa > 1e8 and res <= 1e-6 * rhs_scale:
            log.info("lyapunov solve accepted at relaxed tolerance: residual "
                     "%.3e (relative), condition estimate %.3e", res / rhs_scale, kappa)
        else:
            raise SolverAccuracyError(
                f"lyapunov residual {res / rhs_scale:.3e} relative exceeds "
                f"{_LYAP_TOL:.1e} (condition estimate {kappa:.2e})")
    return X


@dataclass(frozen=True)
class Grammians:
    """Observability and controllability Grammians of a deflated system."""

    observability: np.ndarray
    controllability: np.ndarray


def grammians(sys: StateSpace) -> Grammians:
    """Both Grammians of ``sys``; requires a deflated (Hurwitz) system."""
    Qo = lyapunov_solve(sys.A, sys.C.T @ sys.C)
    Qc = lyapunov_solve(sys.A.T, sys.B @ sys.B.T)
    return Grammians(observability=Qo, controllability=Qc)


def h2_numeric(sys: StateSpace) -> float:
    """Squared H2 norm via the Grammian traces.

    The observability and controllability routes must agree to 1e-8
    relative, otherwise the solve is not trusted and
    :class:`SolverAccuracyError` is raised.
    """
    g = grammians(sys)
    via_o = float(np.trace(sys.B.T @ g.observability @ sys.B))
    via_c = float(np.trace(sys.C @ g.controllability @ sys.C.T))
    if abs(via_o - via_c) > 1e-8 * max(1.0, abs(via_o)):
        raise SolverAccuracyError(
            f"grammian traces disagree: {via_o!r} vs {via_c!r}")
    return via_o


def h2_modal(sys: StateSpace, spectral: SpectralDecomposition):
    """Squared H2 norm summed over the decoupled per-mode blocks.

    Independent of the dense route: each block is solved on its own 2x2 to
    4x4 Lyapunov equation. Returns ``(value, per_mode)`` with one
    contribution per Laplacian eigenvalue, ascending.
    """
    blocks = modal_decouple(sys, spectral)
    per_mode = np.zeros(len(blocks))
    for k, blk in enumerate(blocks):
        per_mode[k] = _block_norm(blk)
    return float(per_mode.sum()), per_mode


def _block_norm(blk: ModeBlock) -> float:
    blk = blk.drop_marginal_modes()
    rhs = blk.C.T @ blk.C
    if not np.any(rhs):
        return 0.0
    X = lyapunov_solve(blk.A, rhs)
    return float(np.trace(blk.B.T @ X @ blk.B))


# --- closed forms ------------------------------------------------------------


def _require_positive(**params):
    for name, val in params.items():
        if not (np.isfinite(val) and val > 0):
            raise DomainError(f"{name} must be positive and finite, got {val}")


@dataclass(frozen=True)
class DpiacModeCoefficients:
    """Rational-contribution coefficients of one nonzero mode."""

    eigenvalue: float
    b1: float
    b2: float
    e: float

    @classmethod
    def from_params(cls, lam: float, m: float, d: float, k1: float,
                    k3: float) -> "DpiacModeCoefficients":
        b1 = (lam ** 2 * (4 * k1 ** 2 * k3 * m - 1) ** 2 + 4 * d * m * k1 ** 3
              + k1 * (d + 4 * k1 * m) * (4 * d * lam * k1 * k3 + 5 * lam + 4 * d * k1))
        b2 = (2 * d * k1 ** 3 * (d + 2 * k1 * m) ** 2
              + 2 * lam * k1 ** 4 * m ** 2 * (4 * k1 * k3 * d + 4))
        e = (d * lam ** 2 * (4 * k1 ** 2 * k3 * m - 1) ** 2
             + 16 * d * lam * k1 ** 4 * k3 * m ** 2 + d ** 2 * lam * k1
             + 4 * k1 * (d + 2 * k1 * m) ** 2 * (d * k1 + lam + d * lam * k1 * k3))
        return cls(eigenvalue=lam, b1=b1, b2=b2, e=e)


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
    coefficients: tuple[DpiacModeCoefficients, ...] | None = None


def _overall_term(m: float, d: float, k1: float) -> float:
    return (d + 5 * m * k1) / (2 * m * (2 * k1 * m + d) ** 2)


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
    overall = _overall_term(m, d, k1)
    per_mode = np.zeros(n)
    if selector is OutputSelector.FREQUENCY_DEVIATION:
        per_mode[0] = overall
        per_mode[1:] = 1.0 / (2 * m * d)
        return AnalyticH2(value=float(per_mode.sum()), per_mode=per_mode,
                          overall=overall, relative=(n - 1) / (2 * m * d))
    if selector is OutputSelector.CONTROL_INPUT:
        per_mode[0] = k1 / 2
    elif selector is OutputSelector.TOTAL_CONTROL_INPUT:
        per_mode[0] = k1 * n / 2
    # spread: identical marginal costs, all contributions stay zero
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
    lam = spectral.eigenvalues
    n = spectral.n
    coeffs = tuple(DpiacModeCoefficients.from_params(float(li), m, d, k1, k3)
                   for li in lam[1:])
    per_mode = np.zeros(n)
    overall = relative = None
    if selector is OutputSelector.FREQUENCY_DEVIATION:
        overall = _overall_term(m, d, k1)
        per_mode[0] = overall
        per_mode[1:] = [c.b1 / c.e / (2 * m) for c in coeffs]
        relative = float(per_mode[1:].sum())
    elif selector is OutputSelector.CONTROL_INPUT:
        per_mode[0] = k1 / 2
        per_mode[1:] = [c.b2 / c.e for c in coeffs]
    elif selector is OutputSelector.TOTAL_CONTROL_INPUT:
        per_mode[0] = k1 * n / 2
    else:  # marginal-cost spread
        per_mode[1:] = [c.eigenvalue ** 2 * c.b2 / c.e for c in coeffs]
    return AnalyticH2(value=float(per_mode.sum()), per_mode=per_mode,
                      overall=overall, relative=relative, coefficients=coeffs)


def h2_bounds_general_B(analytic_value_at_identity: float, B) -> tuple[float, float]:
    """Interval bracketing the norm when disturbances enter through B != I.

    ``B`` must be symmetric positive definite (the eigenvalue sandwich
    argument needs an orthogonal diagonalization). The numeric norm with
    that B is guaranteed to land inside the returned interval.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DomainError(f"B must be square, got {B.shape}")
    scale = max(float(np.abs(B).max()), 1.0)
    if not np.allclose(B, B.T, rtol=0, atol=1e-12 * scale):
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

    Always computes the dense numeric value. On homogeneous networks with
    k2 = 4 k1 it adds the closed form and (if asked) the k1/k3 limits, or,
    with an explicit symmetric positive-definite ``B_in``, the sandwich
    bounds.
    """
    sys = assemble(net, comm, law, gains, B_in, selector)
    numeric = h2_numeric(deflate_zero_mode(sys))

    analytic = rel_gap = None
    limit_k1 = limit_k3 = None
    bounds = None
    if sys.hom is not None and gains.analytic_mode:
        (m, d), k1, k3 = sys.hom, gains.k1, gains.k3
        spectral = spectral_decompose(build_laplacian(net))
        if law == "gbpiac":
            ana = h2_gbpiac_analytic(net.n_nodes, m, d, k1, selector)
        else:
            k3_eff = 0.0 if law == "decpiac" else k3
            ana = h2_dpiac_analytic(spectral, m, d, k1, k3_eff, selector)
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
            if law == "gbpiac" and selector is OutputSelector.FREQUENCY_DEVIATION:
                limit_k1 = (net.n_nodes - 1) / (2 * m * d)
            if law == "dpiac":
                limit_k3 = h2_gbpiac_analytic(net.n_nodes, m, d, k1, selector).value

    return H2Report(law=law, selector=selector.value, numeric=numeric,
                    analytic=analytic, rel_gap=rel_gap, bounds=bounds,
                    limit_k1=limit_k1, limit_k3=limit_k3,
                    homogeneous=sys.hom is not None)
