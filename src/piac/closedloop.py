"""The controlled network's model, its linearized closed loops and their
modal structure.

:class:`_SimModel` holds the network's dynamics once: swing equations at the
machines, the power balance of frequency-dependent and passive buses, lines
coupled through the signed incidence matrix, and the law's maps from
:class:`~piac.controllers.ControlLaw`. Apart from the line flows, all of it
is linear, so the model precomputes one affine map of the state, the
injections and the line flows; an evaluation solves the passive balance,
takes the flows at the resulting phase gaps and applies the map. The same
Newton solves its equilibrium power flow. The simulator integrates it.
:meth:`_SimModel.linearize` is its one derivative,
exact through the passive balance: the integrator's Jacobian, and, at the
origin, where the sine and linear models coincide, the closed loop of every
network (:meth:`_SimModel.matrices`, Kron-reduced where buses are passive).

The model owns the state layout, (theta, omega, eta, xi) for every law:
phases of the non-passive buses, machine frequencies, then the integrator
pairs (one for the gather-broadcast law, one per controller for the local
laws); :meth:`_SimModel.unpack` splits a state, or the state indices, into
those blocks. Disturbances are the injections ``B_in w``, ``B_in`` the
identity by default. A loop is one law under one gains and input, and keeps
only its matrices and the model they were read off; the law, its gains and
the layout are read off that model, and :func:`output_matrix` reads any
output. The ``omega`` output, the frequency at every non-passive bus,
is the phase block of the rhs: rows of ``A``, with those rows of ``B`` as
direct term. An input into a load bus's power balance feeds straight
through, which makes the H2 norm infinite; :func:`output_matrix` and the
noise simulator refuse it.

The raw closed-loop matrix is marginally stable: the integrators conserve
damping-weighted phase sums that no disturbance can move.
:func:`deflate_zero_mode` finds these unreachable directions from the
matrices alone, as the left kernel of ``[A B]``, for every law and network,
and restricts the loop to their complement. The matrix is then Hurwitz and
Lyapunov solves are well posed.

On homogeneous networks an orthogonal change of coordinates built from the
Laplacian eigenvectors decouples the dynamics into small per-eigenvalue
blocks (:func:`modal_decouple`), which is both the proof device behind the
closed-form norms and an independent numeric route to them.
"""

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
import scipy.linalg

from .controllers import ControlLaw, GainSchedule, law_homogeneity, optimal_dispatch
from .errors import (DAESolveError, DomainError, ShapeError,
                     SolverAccuracyError, UnsupportedForModalPath)
from .netmodel import (CommunicationGraph, NodeKind, PowerNetwork,
                       _homogeneous_spectrum)

__all__ = [
    "MODELS",
    "OutputSelector",
    "StateSpace",
    "ModeBlock",
    "assemble",
    "assemble_gbpiac",
    "assemble_dpiac",
    "assemble_decpiac",
    "modal_decouple",
    "deflate_zero_mode",
    "output_matrix",
]

# _SimModel's line flows, the default first: sin(E theta), or E theta at the origin
MODELS = ("sin", "linear")


class OutputSelector(Enum):
    """Which closed-loop signal the H2 norm measures."""

    FREQUENCY_DEVIATION = "omega"     # y = omega
    CONTROL_INPUT = "u"               # y = u (per node)
    TOTAL_CONTROL_INPUT = "us"        # y = sum of u
    MARGINAL_COST_SPREAD = "spread"   # y = k2 * L_comm @ (alpha * xi)

    @classmethod
    def from_token(cls, token: str) -> "OutputSelector":
        for sel in cls:
            if sel.value == token:
                return sel
        raise DomainError(f"unknown selector {token!r} ({'|'.join(s.value for s in cls)})")


@dataclass(frozen=True)
class StateSpace:
    """Closed-loop (A, B) of one law, gains and input.

    The loop carries no output: :func:`output_matrix` reads the C of any
    selector off it, so one loop serves every output. ``B_in`` is the
    physical disturbance matrix over all buses; ``B`` is the full
    state-space input matrix. ``model`` is the linear network model the loop
    was read off: its ``law`` holds the law and the gains it reads, and its
    ``unpack`` gives the state layout. ``basis`` is set by
    :func:`deflate_zero_mode`: its orthonormal columns span the kept states
    in the original coordinates, so an output matrix ``C`` of the
    undeflated loop is ``C @ basis`` on the deflated one.
    """

    A: np.ndarray
    B: np.ndarray
    B_in: np.ndarray
    model: "_SimModel" = field(repr=False)
    basis: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.A.shape[0]


# --- network model -----------------------------------------------------------

class _SimModel:
    """Index bookkeeping plus the right-hand side for one network.

    Every method takes states with leading (path, row) axes. The lines couple
    the phases through the signed incidence matrix ``E``: the line flows are
    ``l = w * sin(E theta)`` (``w * E theta`` for ``model="linear"``), the
    node flows ``E^T l``, and their Jacobian is ``E^T diag(w * cos(E theta))
    E``. The flows are the model's only nonlinear part. Its equations are
    affine in the packed state ``x``, the injections ``p`` and ``l``; they
    are written once, in :meth:`_equations`, and read at unit vectors when
    the model is built, which makes the right-hand side the product
    ``x L_x + p L_p + l L_l``. Passive phases are solved by damped Newton
    inside every evaluation, warm-started from the previous solve of the
    same shape, which is per path in an ensemble, and entered through chord
    steps on that solve's inverse Jacobian while each step halves the
    mismatch, or else restarts cold (:func:`_damped_newton`).
    """

    def __init__(self, net: PowerNetwork, comm: CommunicationGraph | None,
                 law: str, gains: GainSchedule, model: str):
        if model not in MODELS:
            raise DomainError(f"unknown model {model!r} ({'|'.join(MODELS)})")
        self.law = ControlLaw.build(net, comm, law, gains)
        self.net, self.comm = net, comm
        self.model = model
        self.n = net.n_nodes
        kind = np.array([node.kind for node in net.nodes])
        self.mf = np.flatnonzero(kind != NodeKind.PASSIVE)
        self.pas = np.flatnonzero(kind == NodeKind.PASSIVE)
        self.mach_in_mf = np.flatnonzero(kind[self.mf] == NodeKind.MACHINE)
        self.freq_in_mf = np.flatnonzero(kind[self.mf] == NodeKind.FREQ_DEPENDENT)
        self.n_mf, self.n_m, self.n_p = len(self.mf), len(self.mach_in_mf), len(self.pas)
        self.mach_nodes = self.mf[self.mach_in_mf]
        self.freq_nodes = self.mf[self.freq_in_mf]
        # the controller set is the non-passive set: the law's D and M run over it
        self.M_m = self.law.M[self.mach_in_mf]
        self.D_m = self.law.D[self.mach_in_mf]
        self.D_f = self.law.D[self.freq_in_mf]
        self.E = net.incidence
        self.w = net.susceptances
        self.n_ctrl = self.law.pairs
        self.dim = self.n_mf + self.n_m + 2 * self.n_ctrl
        # columns of E: the gaps are E_mf theta_mf + E_p theta_p
        self.E_mf, self.E_p = self.E[:, self.mf], self.E[:, self.pas]
        self._passive_gram = _weighted_gram(self.E_p)
        # last passive solve per state shape, with its inverse Jacobian:
        # single states, an ensemble's paths and the trace blocks each
        # warm-start from their own
        self._theta_p_warm = {}
        # the equations have no constant term, so their values at the unit
        # vectors of (x, p, f) are the rows of the map; L_l = E L_f as the
        # node flows are l E
        a, b = self.dim, self.dim + self.n
        unit = np.eye(b + self.n)
        rows = self._equations(unit[:, :a], unit[:, a:b], unit[:, b:])
        self._L_x, self._L_p = rows[:a], rows[a:b]
        self._L_l = self.E @ rows[b:]

    # -- couplings -----------------------------------------------------------

    def line_flows(self, gap: np.ndarray) -> np.ndarray:
        """Flow along each line for the phase gaps ``E theta``."""
        return self.w * (np.sin(gap) if self.model == "sin" else gap)

    def stiffness(self, gap: np.ndarray) -> np.ndarray:
        """Derivative of :meth:`line_flows` in the gaps, ``w * cos(gap)``."""
        return self.w * np.cos(gap) if self.model == "sin" else np.broadcast_to(self.w, gap.shape)

    def flows(self, theta: np.ndarray) -> np.ndarray:
        """Net flow out of each node, ``E^T line_flows(E theta)``."""
        return self.line_flows(theta @ self.E.T) @ self.E

    def solve_passive(self, theta_mf: np.ndarray, p_pas: np.ndarray) -> np.ndarray:
        """Passive phases balancing ``p_pas``, by damped Newton."""
        return self._balance(theta_mf, p_pas)[0]

    def _balance(self, theta_mf, p_pas):
        """:meth:`solve_passive`, and the phase gaps of the lines at the
        solution.

        The solve starts from the last solution of the same shape and takes
        chord steps with its inverse Jacobian while each step halves the
        mismatch; an element whose step does not restarts cold, at zero,
        with Newton. The solution and its inverse Jacobian are kept for the
        next solve of that shape."""
        shape = theta_mf.shape[:-1] + (self.n_p,)
        gap_mf = theta_mf @ self.E_mf.T
        if self.n_p == 0:
            return np.zeros(shape), gap_mf
        theta_p, K = self._theta_p_warm.get(shape) or (np.zeros(shape), None)
        theta_p, gap, K = self._solve_flows(self.E_p, self._passive_gram, gap_mf, p_pas,
                                            p_pas, theta_p, "passive-network", K)
        self._theta_p_warm[shape] = theta_p, K
        return theta_p, gap

    def equilibrium(self):
        """``(theta, eta, xi, u)`` at rest under the optimal dispatch ``u``:
        the zero-mean phases of every bus solving the power flow, from zero,
        and the pair offsets holding ``u``."""
        u = optimal_dispatch(self.net)
        inj = self.net.injections.copy()
        inj[self.mf] += u
        basis = _phase_complement(self.n)
        F = self.E @ basis
        z = self._solve_flows(F, _weighted_gram(F), 0.0, inj @ basis, inj,
                              np.zeros(self.n - 1), "power-flow")[0]
        return (basis @ z, *self.law.offsets(u), u)

    def _solve_flows(self, F, gram, gap0, target, scale, z0, what, K=None):
        """:func:`_damped_newton` for the ``z`` whose flows
        ``line_flows(gap0 + z F^T) F`` meet ``target``, to 1e-12 of
        ``max(1, max |scale|)``, with the Jacobian ``gram(stiffness)``."""
        def mismatch(z):
            gap = gap0 + z @ F.T
            return target - self.line_flows(gap) @ F, gap

        tol = 1e-12 * np.maximum(1.0, np.abs(scale).max(axis=-1))
        return _damped_newton(mismatch, lambda gap: gram(self.stiffness(gap)), z0, tol,
                              what, K)

    # -- packed state ----------------------------------------------------------

    def pack(self, theta_mf, omega_m, eta, xi) -> np.ndarray:
        return np.concatenate([theta_mf, omega_m, eta, xi], axis=-1)

    def at_rest(self, eq) -> np.ndarray:
        """Packed state at an equilibrium: its phases and pairs, zero frequency."""
        return self.pack(eq.theta[self.mf], np.zeros(self.n_m), eq.eta, eq.xi)

    def unpack(self, x):
        """Blocks of packed states."""
        a = self.n_mf
        b = a + self.n_m
        c = b + self.n_ctrl
        return x[..., :a], x[..., a:b], x[..., b:c], x[..., c:]

    def _equations(self, x, p, f):
        """The model's equations at the states ``x``, injections ``p`` and
        node flows ``f``: swing equations at the machines, load-bus
        frequencies from the power balance, and the law's maps. They are
        linear in all three."""
        theta_mf, omega_m, eta, xi = self.unpack(x)
        u = self.law.u(xi)
        omega_mf = np.empty(theta_mf.shape)
        omega_mf[..., self.mach_in_mf] = omega_m
        omega_mf[..., self.freq_in_mf] = (
            (p[..., self.freq_nodes] + u[..., self.freq_in_mf]
             - f[..., self.freq_nodes]) / self.D_f)
        d_omega_m = (p[..., self.mach_nodes] + u[..., self.mach_in_mf]
                     - self.D_m * omega_m - f[..., self.mach_nodes]) / self.M_m
        return self.pack(omega_mf, d_omega_m, self.law.d_eta(omega_mf, xi),
                         self.law.d_xi(omega_mf, eta, xi))

    def _evaluate(self, x, p_eff):
        """Passive phases and the right-hand side at the states ``x``."""
        theta_p, gap = self._balance(x[..., :self.n_mf], p_eff[..., self.pas])
        return theta_p, x @ self._L_x + p_eff @ self._L_p + self.line_flows(gap) @ self._L_l

    def rhs(self, x: np.ndarray, p_eff: np.ndarray) -> np.ndarray:
        return self._evaluate(x, p_eff)[1]

    def linearize(self, x: np.ndarray, p_eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The exact ``(d rhs / dx, d rhs / dp)`` at the single state ``x``.

        Only the line flows are nonlinear, in the gaps, which the phases
        move and, through the passive balance, the passive injections. With
        ``C`` the stiffness at the solved gaps and ``G = E_p^T C E_p``, the
        passive phases move by ``G^-1 (dp_pas - E_p^T C E_mf dtheta_mf)``,
        one solve with ``G``; the flows add ``L_l^T C dgap`` to those
        columns of the affine map."""
        k = self.n_mf
        gap = self._balance(x[:k], p_eff[self.pas])[1]
        c = self.stiffness(gap)
        # rows: the gaps' derivative in theta_mf, then in p_pas
        d_gap = np.vstack([self.E_mf.T, np.zeros((self.n_p, len(c)))])
        if self.n_p:
            cross = np.vstack([-(self.E_mf.T * c) @ self.E_p, np.eye(self.n_p)])
            d_gap += _solve(self._passive_gram(c), cross.T, "passive-network").T @ self.E_p.T
        L = np.vstack([self._L_x, self._L_p])
        L[np.r_[:k, self.dim + self.pas]] += (d_gap * c) @ self._L_l
        return L[:self.dim].T, L[self.dim:].T

    def matrices(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(A, B)`` of ``dx/dt = A x + B w`` under the injections ``P w``:
        :meth:`linearize` at the origin, where the sine and linear models
        coincide (cos 0 = 1); Kron-reduced on mixed networks."""
        A, B = self.linearize(np.zeros(self.dim), np.zeros(self.n))
        return A, B @ P

    def observables(self, x, p_eff):
        """Full theta and full omega (NaN on passive nodes). The frequencies
        are the phase block of the right-hand side, d theta / dt = omega."""
        theta_p, dx = self._evaluate(x, p_eff)
        theta = np.empty(x.shape[:-1] + (self.n,))
        theta[..., self.mf] = x[..., :self.n_mf]
        theta[..., self.pas] = theta_p
        omega = np.full(theta.shape, np.nan)
        omega[..., self.mf] = dx[..., :self.n_mf]
        return theta, omega


def _phase_complement(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the uniform vector in R^n:
    columns 2..n of the Householder reflector mapping e_1 to it, so the
    power flow solved on it is reproducible."""
    w = np.full(n, 1.0 / math.sqrt(n))
    w[0] -= 1.0
    wn = w @ w
    return (np.eye(n) - (2.0 * np.outer(w, w) / wn if wn > 0 else 0.0))[:, 1:]


def _weighted_gram(F: np.ndarray):
    """The map ``c -> F^T diag(c) F`` over the leading axes of ``c``: one
    product with the outer products of the rows of ``F``, so a large batch
    builds no (batch, rows, columns) temporary."""
    k = F.shape[1]
    outer = (F[:, :, None] * F[:, None, :]).reshape(len(F), k * k)
    return lambda c: (c @ outer).reshape(c.shape[:-1] + (k, k))


def _damped_newton(residual, jacobian, z0, tol, what, K=None):
    """Solve the power mismatch ``g(z) = 0`` by Newton steps ``J^-1 g(z)``.

    ``residual(z)`` returns ``g(z)`` and the phase gaps at ``z``;
    ``jacobian(gaps)`` is ``J``, the derivative of the flows, i.e. of
    ``-g``, so the two share one gap evaluation. Returns the solution, its
    gaps and ``K``, the inverse of ``J`` per element.

    ``K``, an inverse Jacobian from an earlier solve, first drives chord
    steps ``z + K g(z)``: one product each, with no Jacobian and no linear
    solve. An element takes them while each one at least halves its max
    mismatch. Its first step that does not is dropped, and the element
    restarts cold, at zero, with Newton steps on fresh Jacobians, so it
    lands where a cold solve does, whatever iterate the chord steps left;
    the inverse Jacobian at its solution becomes its ``K``. Without ``K``
    every element runs Newton from ``z0`` and has ``K`` taken at its
    solution.

    Works over the leading axes of ``z0``. An element is done once the max
    norm of its mismatch is at most ``tol`` (broadcast over the leading
    axes) and is frozen from then on; each element halves its own Newton
    step until its mismatch falls. So no element's iterates depend on the
    others.
    """
    z = np.array(z0, dtype=float)
    g, gap = residual(z)
    gn = np.abs(g).max(axis=-1, initial=0.0)
    if K is None:
        fresh = np.ones(gn.shape, dtype=bool)
    else:
        # a mismatch that is not finite is left to Newton, which reports it
        chord = (gn > tol) & (gn < np.inf)
        while _any(chord):
            cand = z + (K @ g[..., None])[..., 0]
            g_new, gap_new = residual(cand)
            gn_new = np.abs(g_new).max(axis=-1, initial=0.0)
            halved = chord & (gn_new <= 0.5 * gn)
            z, g, gap, gn = _pick(halved, (cand, g_new, gap_new, gn_new), (z, g, gap, gn))
            chord = halved & (gn > tol)
        # the elements the chord steps left unsolved go on with Newton, from zero
        fresh = ~(gn <= tol)
        if not _any(fresh):
            return z, gap, K
        z = np.where(fresh[..., None], 0.0, z)
        g, gap = residual(z)
        gn = np.abs(g).max(axis=-1, initial=0.0)
    eye = np.eye(z.shape[-1])
    for _ in range(50):
        active = ~(gn <= tol)
        if not active.any():
            break
        J = jacobian(gap)
        if not active.all():
            # frozen elements solve an identity system and are never updated
            J = np.where(active[..., None, None], J, eye)
        step = _solve(J, g[..., None], what)[..., 0]
        # an element leaves the search at its first improving step, so the
        # ones still searching share one step length
        alpha = 1.0
        for _ in range(30):
            cand = z + alpha * step
            g_new, gap_new = residual(cand)
            gn_new = np.abs(g_new).max(axis=-1, initial=0.0)
            better = active & (gn_new < gn)
            z, g, gap, gn = _pick(better, (cand, g_new, gap_new, gn_new), (z, g, gap, gn))
            active = active & ~better
            if not active.any():
                break
            alpha *= 0.5
        else:
            raise DAESolveError(_unconverged(f"{what} Newton stalled", gn, tol))
    else:
        raise DAESolveError(_unconverged(
            f"{what} Newton did not converge in 50 iterations", gn, tol))
    J = jacobian(gap)
    if not fresh.all():
        # only the fresh elements' inverse is kept
        J = np.where(fresh[..., None, None], J, eye)
    K = _pick(fresh, (_solve(J, eye, what),), (K,))[0]
    return z, gap, K


def _any(mask):
    """``mask.any()``; ``bool`` of an unbatched solve's scalar mask is far
    cheaper than a reduction."""
    return bool(mask) if mask.ndim == 0 else mask.any()


def _pick(mask, new, old):
    """The arrays of ``new`` on the elements where ``mask`` holds and those
    of ``old`` elsewhere; the arrays run over the leading axes of ``mask``
    and may have trailing axes of their own."""
    if mask.ndim == 0:
        return new if mask else old
    if mask.all():
        return new
    if not mask.any():
        return old
    return tuple(np.where(mask.reshape(mask.shape + (1,) * (a.ndim - mask.ndim)), a, b)
                 for a, b in zip(new, old))


def _solve(J, b, what):
    """``J^-1 b`` for the ``what`` Jacobian ``J``; a singular one raises
    :class:`DAESolveError`."""
    try:
        return np.linalg.solve(J, b)
    except np.linalg.LinAlgError as exc:
        raise DAESolveError(f"singular {what} jacobian: {exc}") from None


def _unconverged(message, gn, tol):
    """``message`` with the count of elements whose mismatch ``gn`` is above
    ``tol``, and the largest of them against its tolerance."""
    gn, tol = np.broadcast_arrays(gn, tol)
    off = ~(gn <= tol)
    worst = np.argmax(np.where(off, gn, -np.inf))
    return (f"{message}: {np.count_nonzero(off)} of {gn.size} element(s) "
            f"unconverged, largest mismatch {gn.flat[worst]:.3e} against "
            f"tolerance {tol.flat[worst]:.3e}")


# --- closed loops ------------------------------------------------------------


def _b_in(net: PowerNetwork, B_in) -> np.ndarray:
    n = net.n_nodes
    if B_in is None:
        return np.eye(n)
    B_in = np.asarray(B_in, dtype=float)
    if B_in.shape != (n, n):
        raise ShapeError(f"B_in must be ({n},{n}), got {B_in.shape}")
    return B_in


def _assemble(net: PowerNetwork, comm: CommunicationGraph | None, law: str,
              gains: GainSchedule, B_in) -> StateSpace:
    """Closed loop of any law, read off the linear network model."""
    model = _SimModel(net, comm, law, gains, "linear")
    B_in = _b_in(net, B_in)
    A, B = model.matrices(B_in)
    return StateSpace(A=A, B=B, B_in=B_in, model=model)


def assemble_gbpiac(net: PowerNetwork, gains: GainSchedule, B_in=None) -> StateSpace:
    """Closed loop of the gather-broadcast law; state (theta, omega, eta_s, xi_s)."""
    return _assemble(net, None, "gbpiac", gains, B_in)


def assemble_dpiac(net: PowerNetwork, comm: CommunicationGraph, gains: GainSchedule,
                   B_in=None) -> StateSpace:
    """Closed loop of the distributed law; state (theta, omega, eta, xi)."""
    return _assemble(net, comm, "dpiac", gains, B_in)


def assemble_decpiac(net: PowerNetwork, gains: GainSchedule, B_in=None,
                     comm: CommunicationGraph | None = None) -> StateSpace:
    """Closed loop of the decentralized law (no consensus coupling).

    ``comm`` is only read by the spread output, to define the difference
    operator on the marginal costs.
    """
    return _assemble(net, comm, "decpiac", gains, B_in)


def assemble(net: PowerNetwork, comm: CommunicationGraph | None, law: str,
             gains: GainSchedule, B_in=None) -> StateSpace:
    """Closed loop of the law named ``law`` under the gains ``gains`` and the
    input ``B_in`` (the identity by default), through its ``assemble_*``
    function; the gather-broadcast law does not read ``comm``. Any output is
    read off the result by :func:`output_matrix`."""
    if law == "gbpiac":
        return assemble_gbpiac(net, gains, B_in)
    if law == "dpiac":
        return assemble_dpiac(net, comm, gains, B_in)
    if law == "decpiac":
        return assemble_decpiac(net, gains, B_in, comm=comm)
    return _assemble(net, comm, law, gains, B_in)    # ControlLaw.build refuses it


def output_matrix(sys: StateSpace, selector: OutputSelector) -> np.ndarray:
    """Output matrix of ``selector`` on the undeflated loop ``sys``, read off
    its model; on the deflated loop the same output is
    ``output_matrix(sys, selector) @ basis``.

    ``omega`` is the phase block of the rhs: the phase rows of ``A``. A
    nonzero direct term in those rows of ``B`` makes its norm infinite and
    raises :class:`DomainError`, naming the buses it feeds. The other
    outputs read ``xi`` only, through the law's maps; the spread of a local
    law needs the communication graph.
    """
    if sys.basis is not None:
        raise DomainError("output_matrix needs the undeflated loop from assemble")
    model = sys.model
    if selector is OutputSelector.FREQUENCY_DEVIATION:
        _refuse_feedthrough(model, sys.B, "--b-diag with zeros off the machine buses")
        return sys.A[:model.n_mf]
    ctrl = model.law
    unit = np.eye(ctrl.pairs)
    if selector is OutputSelector.CONTROL_INPUT:
        rows = ctrl.u(unit).T
    elif selector is OutputSelector.TOTAL_CONTROL_INPUT:
        rows = ctrl.u(unit).sum(axis=1, keepdims=True).T
    else:
        rows = ctrl.spread(unit).T
    C = np.zeros((len(rows), model.dim))
    C[:, model.dim - ctrl.pairs:] = rows
    return C


def _refuse_feedthrough(model: _SimModel, B: np.ndarray, remedy: str) -> None:
    """Raise :class:`DomainError` if the input matrix ``B`` of the packed
    state of ``model`` reaches a frequency directly, naming the buses it
    feeds: white noise there has infinite variance, and the omega norm is
    infinite. ``remedy`` says how to keep the input off those buses."""
    fed = np.flatnonzero(np.any(B[:model.n_mf] != 0, axis=1))
    if len(fed):
        ids = ", ".join(str(model.net.ids[i]) for i in model.mf[fed])
        raise DomainError(
            "the omega norm is infinite: the input feeds straight through to "
            f"the frequency at bus(es) {ids}; use an input that reaches the "
            f"machine buses only ({remedy})")


# --- zero-mode deflation -----------------------------------------------------


def deflate_zero_mode(sys: StateSpace) -> StateSpace:
    """Restrict ``sys`` to the states its input reaches, which removes every
    marginal mode no disturbance excites.

    The unreachable directions span the left kernel ``W`` of ``[A B]``: the
    vectors with ``w^T A = 0`` and ``w^T B = 0``. One QR with column pivoting
    of ``[A B]`` finds it; its rank tolerance is ``max(shape) eps |R_00|``.
    The complement of ``W`` contains the ranges of ``A`` and ``B``. So it is
    A-invariant and holds every state reached from rest, and the restriction
    keeps ``C (sI - A)^-1 B`` exactly. It drops ``dim W`` zero eigenvalues:
    one where the controllers coordinate (the summed ``eta`` minus the
    damping-weighted phase sum is conserved), one per controller at k3 = 0
    and for the decentralized law (each ``eta_i - d_i theta_i`` is). The
    restricted matrix is then Hurwitz. A marginal mode that the input does
    reach stays, and :func:`~piac.h2.lyapunov_solve` raises
    :class:`UnstableSystem` for it. A kernel wider than the law's
    conserved quantities (``ControlLaw.conserved``) means the tolerance has
    reached pivots of the dynamics, which large gains do; it raises
    :class:`SolverAccuracyError`.

    In that QR, ``[A B] Pi = Q R``, the trailing columns of ``Q`` span
    ``W`` and its leading ``rank`` columns are an orthonormal basis ``P`` of
    the complement. The result is ``(P^T A P, P^T B)`` with ``P`` as its
    ``basis``, which maps every output ``C`` of the loop to ``C P``.
    """
    if sys.basis is not None:
        return sys
    M = np.hstack([sys.A, sys.B])
    Q, R, _ = scipy.linalg.qr(M, pivoting=True)
    pivots = np.abs(np.diag(R))
    tol = max(M.shape) * np.finfo(float).eps * pivots[0]
    rank = int(np.count_nonzero(pivots > tol))
    k = len(Q) - rank
    law = sys.model.law
    if k > law.conserved:
        raise SolverAccuracyError(
            f"zero-mode deflation found {k} unreachable directions where the "
            f"{law.name} loop conserves {law.conserved}: the rank tolerance "
            f"{tol:.1e} (max(shape) eps |R_00|) reaches pivots of the dynamics "
            f"(largest dropped {pivots[rank]:.1e}): at gains this large the "
            "loop's kernel cannot be told from round-off")
    P = Q[:, :rank]
    return replace(sys, A=P.T @ sys.A @ P, B=P.T @ sys.B, basis=P)


# --- modal decoupling --------------------------------------------------------


@dataclass(frozen=True)
class ModeBlock:
    """One decoupled block: its eigenvalue, dynamics, input rows, output
    rows. State 0 of every block is the mode's phase coordinate."""

    eigenvalue: float
    A: np.ndarray
    B: np.ndarray         # block rows of the transformed input matrix, (dim, n_w)
    C: np.ndarray         # selector rows in block coordinates, (n_y, dim)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def drop_marginal_modes(self) -> "ModeBlock":
        """The block restricted to its asymptotically stable part.

        Zero-eigenvalue blocks lose the free phase coordinate, their state
        0. Uncoordinated
        4-dim blocks (k3 = 0, positive eigenvalue) additionally carry one
        unreachable marginal direction with left vector (-d, 0, 1, 0), which
        is projected out. Both are written from the block structure, apart
        from the numeric left-kernel search of :func:`deflate_zero_mode`, so
        that the modal route stays an independent check of it.
        """
        if self.eigenvalue == 0.0:
            keep = np.arange(1, self.dim)
            return replace(self, A=self.A[np.ix_(keep, keep)], B=self.B[keep, :],
                           C=self.C[:, keep])
        if self.dim == 4 and self.A[2, 3] == 0.0:
            # the left vector (-d, 0, 1, 0), with d = A[2, 1]
            P = scipy.linalg.null_space(np.array([[-self.A[2, 1], 0.0, 1.0, 0.0]]))
            return replace(self, A=P.T @ self.A @ P, B=P.T @ self.B, C=self.C @ P)
        return self


def modal_decouple(sys: StateSpace, selector: OutputSelector) -> list[ModeBlock]:
    """Split a homogeneous closed loop into per-eigenvalue blocks, each with
    its rows of the ``selector`` output.

    Once the homogeneity gate passes, the Laplacian of the loop's network
    is decomposed: the spectrum the closed forms of :mod:`piac.h2` are
    evaluated on. Gather-broadcast: one 4-dim block for the zero mode
    (phase mean, frequency mean, both central states) plus 2-dim
    oscillator blocks for every nonzero eigenvalue. Local laws: one 4-dim
    block per mode. The orthogonal transform is verified to
    block-diagonalize A to 1e-9 relative before the blocks are returned.
    """
    if sys.basis is not None:
        raise UnsupportedForModalPath("modal decoupling expects the undeflated system")
    model, law = sys.model, sys.model.law
    spread = selector is OutputSelector.MARGINAL_COST_SPREAD
    if spread and law.L_comm is None:
        raise DomainError("spread output needs a communication graph to difference over")
    hom = law_homogeneity(model.net, model.comm, law.name, law.gains, spread)
    if not hom.passed:
        raise UnsupportedForModalPath(
            "modal decoupling needs homogeneous parameters (and a matching "
            "communication graph wherever the loop reads it)")
    m, d = hom.m, hom.d
    n, N = model.n, sys.dim
    spectral = _homogeneous_spectrum(model.net)
    lam, Q = spectral.eigenvalues, spectral.modal_matrix
    k1, k2, k3 = law.gains.k1, law.gains.k2, law.gains.k3
    rt_n = math.sqrt(n)
    blocks: list[ModeBlock] = []
    cols: list[np.ndarray] = []     # columns of T, original coordinates
    theta, omega, eta, xi = model.unpack(np.arange(N))

    def add(i: int, A, C, states) -> None:
        """Mode ``i``'s block, whose input reaches the frequency, and its
        columns of T, one per block of ``states``."""
        B = np.zeros((len(A), sys.B.shape[1]))
        B[1, :] = Q[:, i] @ sys.B_in / m
        blocks.append(ModeBlock(float(lam[i]), np.asarray(A), B, np.array([C])))
        for block in states:
            c = np.zeros(N)
            if len(block) == n:
                c[block] = Q[:, i]
            else:                    # central scalar state
                c[block[0]] = 1.0
            cols.append(c)

    if law.central:
        A0 = [[0.0, 1.0, 0.0, 0.0],
              [0.0, -d / m, 0.0, k2 / (m * rt_n)],
              [0.0, d * rt_n, 0.0, 0.0],
              [0.0, -k1 * m * rt_n, -k1, -k2]]
        C0 = {OutputSelector.FREQUENCY_DEVIATION: [0.0, 1.0, 0.0, 0.0],
              OutputSelector.CONTROL_INPUT: [0.0, 0.0, 0.0, k2 / rt_n],
              OutputSelector.TOTAL_CONTROL_INPUT: [0.0, 0.0, 0.0, k2],
              OutputSelector.MARGINAL_COST_SPREAD: [0.0, 0.0, 0.0, 0.0]}[selector]
        add(0, A0, C0, (theta, omega, eta, xi))
        Ci = {OutputSelector.FREQUENCY_DEVIATION: [0.0, 1.0]}.get(selector, [0.0, 0.0])
        for i in range(1, n):
            add(i, [[0.0, 1.0], [-lam[i] / m, -d / m]], Ci, (theta, omega))
    else:
        for i in range(n):
            li = float(lam[i])
            Ai = [[0.0, 1.0, 0.0, 0.0],
                  [-li / m, -d / m, 0.0, k2 / m],
                  [0.0, d, 0.0, k2 * k3 * li],
                  [0.0, -k1 * m, -k1, -k2]]
            us_w = k2 * rt_n if i == 0 else 0.0
            Ci = {OutputSelector.FREQUENCY_DEVIATION: [0.0, 1.0, 0.0, 0.0],
                  OutputSelector.CONTROL_INPUT: [0.0, 0.0, 0.0, k2],
                  OutputSelector.TOTAL_CONTROL_INPUT: [0.0, 0.0, 0.0, us_w],
                  OutputSelector.MARGINAL_COST_SPREAD: [0.0, 0.0, 0.0, k2 * li]}[selector]
            add(i, Ai, Ci, (theta, omega, eta, xi))

    T = np.column_stack(cols)
    At = T.T @ sys.A @ T
    expected = scipy.linalg.block_diag(*(blk.A for blk in blocks))
    scale = max(float(np.abs(sys.A).max()), 1e-300)
    err = float(np.abs(At - expected).max())
    if err > 1e-9 * scale:
        raise UnsupportedForModalPath(
            "the Laplacian's modal transform failed to block-diagonalize "
            f"the loop (residual {err:.2e}, against 1e-9 max |A|)")
    return blocks
