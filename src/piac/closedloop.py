"""The controlled network's model, its linearized closed loops and their
modal structure.

:class:`_SimModel` holds the network's dynamics once: swing equations at the
machines, the power balance of frequency-dependent and passive buses, lines
coupled through the signed incidence matrix, and the law's maps from
:class:`~piac.controllers.ControlLaw`. The simulator integrates it, and the
closed loops are read off its ``model="linear"`` instance at unit vectors
(:meth:`_SimModel.matrices`), which is exact because that model is affine.

State ordering is fixed as (theta, omega, eta, xi) for every law: phase
angles, frequency deviations, then the controller integrator pairs (one
pair for the gather-broadcast law, one per node for the local laws).
Disturbances enter the frequency equation through an input matrix ``B_in``
(identity by default), scaled by the inverse inertia.

The zero eigenvalue of the Laplacian makes the raw closed-loop matrix
marginally stable: the average phase is a free integrator that none of the
supported outputs observe. :func:`deflate_zero_mode` projects it out, after
which the matrix is Hurwitz and Lyapunov solves are well posed.

On homogeneous networks an orthogonal change of coordinates built from the
Laplacian eigenvectors decouples the dynamics into small per-eigenvalue
blocks (:func:`modal_decouple`), which is both the proof device behind the
closed-form norms and an independent numeric route to them.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.linalg

from .controllers import ControlLaw, GainSchedule, check_law, law_homogeneity
from .errors import (DAESolveError, DomainError, NotDeflatable, ShapeError,
                     UnsupportedForLinearPath, UnsupportedForModalPath)
from .netmodel import (CommunicationGraph, NodeKind, PowerNetwork,
                       SpectralDecomposition)

__all__ = [
    "OutputSelector",
    "StateSpace",
    "ModeBlock",
    "assemble",
    "assemble_gbpiac",
    "assemble_dpiac",
    "assemble_decpiac",
    "modal_decouple",
    "deflate_zero_mode",
]


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
        raise DomainError(f"unknown selector {token!r} (omega|u|us|spread)")


@dataclass(frozen=True)
class StateSpace:
    """Closed-loop (A, B, C) with labeled state blocks.

    ``labels`` maps block names ('theta', 'omega', 'eta', 'xi') to slices of
    the state vector. ``B_in`` is the physical n-by-n disturbance matrix
    before the inertia scaling; ``B`` is the full state-space input matrix.
    ``hom`` holds (m, d) when the network qualifies for the modal/analytic
    path, else None.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    labels: dict[str, slice]
    law: str
    gains: GainSchedule
    selector: OutputSelector
    n: int
    B_in: np.ndarray
    hom: tuple[float, float] | None = None
    deflated: bool = False

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def spectral_abscissa(self) -> float:
        return float(np.max(np.linalg.eigvals(self.A).real))


# --- network model -----------------------------------------------------------

# relative forward-difference step of the Jacobian, sqrt of the machine epsilon
_FD_STEP = math.sqrt(np.finfo(float).eps)


class _SimModel:
    """Index bookkeeping plus right-hand sides for one network.

    Every method takes states with leading (path, row) axes. The lines couple
    the phases through the signed incidence matrix ``E``: the flows are
    ``E^T (w * sin(E theta))`` (``w * E theta`` for ``model="linear"``) and
    their Jacobian is ``E^T diag(w * cos(E theta)) E``. Passive phases are
    solved by damped Newton inside every evaluation, warm-started from the
    previous solve of the same shape, which is per path in an ensemble.
    """

    def __init__(self, net: PowerNetwork, comm: CommunicationGraph | None,
                 law: str, gains: GainSchedule, model: str):
        if model not in ("sin", "linear"):
            raise DomainError(f"unknown model {model!r} (sin|linear)")
        self.law = ControlLaw.build(net, comm, law, gains)
        self.net = net
        self.model = model
        idx = net.index_of
        self.n = net.n_nodes
        self.mf = np.array([idx[i] for i in net.ids
                            if net.node(i).kind is not NodeKind.PASSIVE], dtype=int)
        self.pas = np.array([idx[i] for i in net.passive_ids], dtype=int)
        self.mach_in_mf = np.array([k for k, node_i in enumerate(self.mf)
                                    if net.nodes[node_i].kind is NodeKind.MACHINE],
                                   dtype=int)
        self.n_mf = len(self.mf)
        self.n_m = len(self.mach_in_mf)
        self.n_p = len(self.pas)
        freq_mask = np.ones(self.n_mf, dtype=bool)
        freq_mask[self.mach_in_mf] = False
        self.freq_in_mf = np.flatnonzero(freq_mask)
        self.mach_nodes = self.mf[self.mach_in_mf]
        self.freq_nodes = self.mf[self.freq_in_mf]
        self.M_m = net.inertias            # machines, node order
        self.D_m = net.dampings[self.mach_in_mf]   # controller set == MF set
        self.D_f = net.dampings[self.freq_in_mf]
        self.E = net.incidence
        self.w = net.susceptances
        self.n_ctrl = self.law.pairs
        self.dim = self.n_mf + self.n_m + 2 * self.n_ctrl
        # columns of E: the gaps are E_mf theta_mf + E_p theta_p
        self.E_mf, self.E_p = self.E[:, self.mf], self.E[:, self.pas]
        self._passive_gram = _weighted_gram(self.E_p)
        # last passive solve per state shape: the integrator's single states
        # and the batched Jacobian rows each warm-start from their own
        self._theta_p_warm = {}

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
        shape = theta_mf.shape[:-1] + (self.n_p,)
        if self.n_p == 0:
            return np.zeros(shape)
        gap_mf = theta_mf @ self.E_mf.T
        E_p = self.E_p
        warm = self._theta_p_warm.get(shape)
        theta_p = _damped_newton(
            lambda z: p_pas - self.line_flows(gap_mf + z @ E_p.T) @ E_p,
            lambda z: self._passive_gram(self.stiffness(gap_mf + z @ E_p.T)),
            np.zeros(shape) if warm is None else warm,
            1e-12 * np.maximum(1.0, np.abs(p_pas).max(axis=-1)), "passive-network")
        self._theta_p_warm[shape] = theta_p
        return theta_p

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

    def _network(self, theta_mf, omega_m, u, p_eff):
        """Full theta, omega over the controller set and the line flows:
        passive phases and load-bus frequencies from the power balance."""
        theta = np.zeros(theta_mf.shape[:-1] + (self.n,))
        theta[..., self.mf] = theta_mf
        if self.n_p:
            theta[..., self.pas] = self.solve_passive(theta_mf, p_eff[..., self.pas])
        f = self.flows(theta)
        omega_mf = np.empty(theta_mf.shape)
        omega_mf[..., self.mach_in_mf] = omega_m
        if self.freq_nodes.size:
            omega_mf[..., self.freq_in_mf] = (
                (p_eff[..., self.freq_nodes] + u[..., self.freq_in_mf]
                 - f[..., self.freq_nodes]) / self.D_f)
        return theta, omega_mf, f

    def rhs(self, x: np.ndarray, p_eff: np.ndarray) -> np.ndarray:
        theta_mf, omega_m, eta, xi = self.unpack(x)
        u = self.law.u(xi)
        _, omega_mf, f = self._network(theta_mf, omega_m, u, p_eff)
        d_omega_m = (p_eff[..., self.mach_nodes] + u[..., self.mach_in_mf]
                     - self.D_m * omega_m - f[..., self.mach_nodes]) / self.M_m
        return self.pack(omega_mf, d_omega_m, self.law.d_eta(omega_mf, xi),
                         self.law.d_xi(omega_mf, eta, xi))

    def jacobian(self, x: np.ndarray, p_eff: np.ndarray) -> np.ndarray:
        """Forward-difference Jacobian of :meth:`rhs` at the single state
        ``x``: the state and its ``dim`` unit perturbations go through one
        batched :meth:`rhs` call."""
        h = _FD_STEP * np.maximum(1.0, np.abs(x))
        h = (x + h) - x                  # steps exact in floating point
        F = self.rhs(np.vstack([x, x + np.diag(h)]), p_eff)
        return (F[1:] - F[0]).T / h

    def matrices(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(A, B)`` of a ``model="linear"`` instance, ``dx/dt = A x + B w``
        under the injections ``P w``: the rhs at zero injection applied to
        the ``dim`` unit states, and at zero state applied to the columns of
        ``P``.

        Both are exact because the linear model is affine. Every evaluation
        solves the passive balance, so on mixed networks they are the
        Kron-reduced linearization.
        """
        A = self.rhs(np.eye(self.dim), np.zeros(self.n)).T
        B = self.rhs(np.zeros((P.shape[1], self.dim)), P.T).T
        return A, B

    def observables(self, x, p_eff):
        """Full theta and full omega (NaN on passive nodes)."""
        theta_mf, omega_m, _, xi = self.unpack(x)
        theta, omega_mf, _ = self._network(theta_mf, omega_m, self.law.u(xi), p_eff)
        omega = np.full(theta.shape, np.nan)
        omega[..., self.mf] = omega_mf
        return theta, omega


def _weighted_gram(F: np.ndarray):
    """The map ``c -> F^T diag(c) F`` over the leading axes of ``c``: one
    product with the outer products of the rows of ``F``, so a large batch
    builds no (batch, rows, columns) temporary."""
    k = F.shape[1]
    outer = (F[:, :, None] * F[:, None, :]).reshape(len(F), k * k)
    return lambda c: (c @ outer).reshape(c.shape[:-1] + (k, k))


def _damped_newton(residual, jacobian, z0, tol, what):
    """Solve the power mismatch ``residual(z) = 0`` by Newton steps
    ``jacobian(z)^-1 residual(z)``, ``jacobian`` being the derivative of the
    flows, i.e. of ``-residual``.

    Works over the leading axes of ``z0``. An element is done once the max
    norm of its mismatch is at most ``tol`` (broadcast over the leading
    axes) and is frozen from then on; each element halves its own step until
    its mismatch falls. So no element's iterates depend on the others.
    """
    z = np.array(z0, dtype=float)
    g = residual(z)
    gn = np.abs(g).max(axis=-1, initial=0.0)
    eye = np.eye(z.shape[-1])
    for _ in range(50):
        active = ~(gn <= tol)
        if not active.any():
            return z
        # frozen elements solve an identity system and are never updated
        J = np.where(active[..., None, None], jacobian(z), eye)
        try:
            step = np.linalg.solve(J, g[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise DAESolveError(f"singular {what} jacobian: {exc}") from None
        # an element leaves the search at its first improving step, so the
        # ones still searching share one step length
        alpha = 1.0
        for _ in range(30):
            cand = z + alpha * step
            g_new = residual(cand)
            gn_new = np.abs(g_new).max(axis=-1, initial=0.0)
            better = active & (gn_new < gn)
            z = np.where(better[..., None], cand, z)
            g = np.where(better[..., None], g_new, g)
            gn = np.where(better, gn_new, gn)
            active = active & ~better
            if not active.any():
                break
            alpha *= 0.5
        else:
            raise DAESolveError(f"{what} Newton stalled")
    raise DAESolveError(f"{what} Newton did not converge in 50 iterations")


# --- closed loops ------------------------------------------------------------


def _machine_only(net: PowerNetwork, what: str):
    bad = []
    if net.freq_ids:
        bad.append(f"{len(net.freq_ids)} frequency-dependent")
    if net.passive_ids:
        bad.append(f"{len(net.passive_ids)} passive")
    if bad:
        raise UnsupportedForLinearPath(
            f"{what} needs a machine-only network; found {' and '.join(bad)} node(s). "
            "Use the simulation path for mixed networks.")


def _b_in(net: PowerNetwork, B_in) -> np.ndarray:
    n = net.n_nodes
    if B_in is None:
        return np.eye(n)
    B_in = np.asarray(B_in, dtype=float)
    if B_in.shape != (n, n):
        raise ShapeError(f"B_in must be ({n},{n}), got {B_in.shape}")
    return B_in


def _assemble(net: PowerNetwork, comm: CommunicationGraph | None, law: str,
              gains: GainSchedule, B_in, selector: OutputSelector) -> StateSpace:
    """Closed loop of any law, read off the linear network model."""
    _machine_only(net, f"{law} closed loop")
    model = _SimModel(net, comm, law, gains, "linear")
    B_in = _b_in(net, B_in)
    A, B = model.matrices(B_in)
    n, k, N = model.n, model.n_ctrl, model.dim
    labels = {"theta": slice(0, n), "omega": slice(n, 2 * n),
              "eta": slice(2 * n, 2 * n + k), "xi": slice(2 * n + k, N)}
    C = _output_matrix(selector, model.law, n, N, labels)
    hom = law_homogeneity(net, comm, law, selector is OutputSelector.MARGINAL_COST_SPREAD)
    return StateSpace(A=A, B=B, C=C, labels=labels, law=law, gains=gains,
                      selector=selector, n=n, B_in=B_in,
                      hom=(hom.m, hom.d) if hom.passed else None)


def assemble_gbpiac(net: PowerNetwork, gains: GainSchedule, B_in=None,
                    selector: OutputSelector = OutputSelector.FREQUENCY_DEVIATION) -> StateSpace:
    """Closed loop of the gather-broadcast law; state (theta, omega, eta_s, xi_s)."""
    return _assemble(net, None, "gbpiac", gains, B_in, selector)


def assemble_dpiac(net: PowerNetwork, comm: CommunicationGraph, gains: GainSchedule,
                   B_in=None,
                   selector: OutputSelector = OutputSelector.FREQUENCY_DEVIATION) -> StateSpace:
    """Closed loop of the distributed law; state (theta, omega, eta, xi), dim 4n."""
    return _assemble(net, comm, "dpiac", gains, B_in, selector)


def assemble_decpiac(net: PowerNetwork, gains: GainSchedule, B_in=None,
                     selector: OutputSelector = OutputSelector.FREQUENCY_DEVIATION,
                     comm: CommunicationGraph | None = None) -> StateSpace:
    """Closed loop of the decentralized law (no consensus coupling).

    ``comm`` is only consulted when the spread output is requested, to define
    the difference operator on the marginal costs.
    """
    return _assemble(net, comm, "decpiac", gains, B_in, selector)


def assemble(net: PowerNetwork, comm: CommunicationGraph | None, law: str,
             gains: GainSchedule, B_in=None,
             selector: OutputSelector = OutputSelector.FREQUENCY_DEVIATION) -> StateSpace:
    """Closed loop of the law named ``law`` through its ``assemble_*``
    function; the gather-broadcast law does not read ``comm``."""
    check_law(law, comm)
    if law == "gbpiac":
        return assemble_gbpiac(net, gains, B_in, selector)
    if law == "dpiac":
        return assemble_dpiac(net, comm, gains, B_in, selector)
    return assemble_decpiac(net, gains, B_in, selector, comm=comm)


def _output_matrix(selector, ctrl: ControlLaw, n, N, labels):
    C = np.zeros((1 if selector is OutputSelector.TOTAL_CONTROL_INPUT else n, N))
    unit = np.eye(ctrl.pairs)
    if selector is OutputSelector.FREQUENCY_DEVIATION:
        C[:, labels["omega"]] = np.eye(n)
    elif selector is OutputSelector.CONTROL_INPUT:
        C[:, labels["xi"]] = ctrl.u(unit).T
    elif selector is OutputSelector.TOTAL_CONTROL_INPUT:
        C[0, labels["xi"]] = ctrl.u(unit).sum(axis=1)
    else:
        C[:, labels["xi"]] = ctrl.spread(unit).T
    return C


# --- zero-mode deflation -----------------------------------------------------


def _phase_complement(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the uniform vector in R^n.

    Columns 2..n of the Householder reflector mapping e_1 to 1/sqrt(n);
    deterministic, so deflated systems are reproducible.
    """
    v = np.full(n, 1.0 / math.sqrt(n))
    w = v - np.eye(n)[:, 0]
    H = np.eye(n)
    wn = w @ w
    if wn > 0:
        H -= 2.0 * np.outer(w, w) / wn
    return H[:, 1:]


def deflate_zero_mode(sys: StateSpace) -> StateSpace:
    """Project out every marginally stable mode the output cannot see
    excited.

    Standard case: the uniform direction of the theta block spans the kernel
    of A and is invisible to every supported output, so removing it leaves
    the transfer function intact with one state fewer and a Hurwitz matrix.
    Raises :class:`NotDeflatable` if the output actually reads that mode.

    Local laws without coordination (k3 = 0) carry n marginal modes, not
    one: any damping-weighted phase shift absorbed by the local integrators
    is an equilibrium, and disturbances never reach those directions (the
    left zero-eigenvectors are orthogonal to B). For them the projection
    removes the whole left zero-eigenspace instead.
    """
    if sys.deflated:
        return sys
    if sys.law in ("dpiac", "decpiac") and (sys.law == "decpiac" or sys.gains.k3 == 0.0):
        return _deflate_uncoordinated(sys)
    if "theta" not in sys.labels:
        raise NotDeflatable("system has no phase block")
    th = sys.labels["theta"]
    n_th = th.stop - th.start
    N = sys.dim
    v = np.zeros(N)
    v[th] = 1.0 / math.sqrt(n_th)
    scaleC = max(float(np.abs(sys.C).max()), 1.0)
    if np.abs(sys.C @ v).max() > 1e-12 * scaleC:
        raise NotDeflatable("output depends on the average phase")
    scaleA = max(float(np.abs(sys.A).max()), 1.0)
    if np.abs(sys.A @ v).max() > 1e-9 * scaleA:
        raise NotDeflatable("average phase is not an invariant direction")
    P_th = _phase_complement(n_th)
    P = np.zeros((N, N - 1))
    P[th, : n_th - 1] = P_th
    rest = [k for k in range(N) if not (th.start <= k < th.stop)]
    for new, old in enumerate(rest, start=n_th - 1):
        P[old, new] = 1.0
    labels = {}
    for name, sl in sys.labels.items():
        if name == "theta":
            if n_th > 1:
                labels["theta"] = slice(0, n_th - 1)
        else:
            labels[name] = slice(sl.start - 1, sl.stop - 1)
    return replace(sys, A=P.T @ sys.A @ P, B=P.T @ sys.B, C=sys.C @ P,
                   labels=labels, deflated=True)


def _deflate_uncoordinated(sys: StateSpace) -> StateSpace:
    """Remove the n-dimensional left zero-eigenspace of a k3 = 0 local law.

    The left kernel is spanned by (-D c, 0, c, 0) over the (theta, omega,
    eta, xi) blocks; every such direction is unreachable from the physical
    disturbance input, so restricting to its orthogonal complement preserves
    the transfer function exactly and leaves a Hurwitz matrix. Block labels
    do not survive the mixing and are dropped.
    """
    n = sys.n
    N = sys.dim
    d_vec = np.diag(sys.A[sys.labels["eta"], sys.labels["omega"]]).copy()
    W = np.zeros((N, n))
    W[sys.labels["theta"], :] = -np.diag(d_vec)
    W[sys.labels["eta"], :] = np.eye(n)
    scaleA = max(float(np.abs(sys.A).max()), 1.0)
    if np.abs(W.T @ sys.A).max() > 1e-9 * scaleA:
        raise NotDeflatable("marginal modes are not invariant; unexpected structure")
    if np.abs(W.T @ sys.B).max() > 1e-12 * max(float(np.abs(sys.B).max()), 1.0):
        raise NotDeflatable("disturbances reach the marginal modes")
    P = scipy.linalg.null_space(W.T)
    return replace(sys, A=P.T @ sys.A @ P, B=P.T @ sys.B, C=sys.C @ P,
                   labels={}, deflated=True)


# --- modal decoupling --------------------------------------------------------


@dataclass(frozen=True)
class ModeBlock:
    """One decoupled block: its eigenvalue, dynamics, input rows, output rows."""

    index: int            # 0-based mode number (0 is the zero mode)
    eigenvalue: float
    A: np.ndarray
    B: np.ndarray         # block rows of the transformed input matrix, (dim, n_w)
    C: np.ndarray         # selector rows in block coordinates, (n_y, dim)
    states: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def drop_marginal_modes(self) -> "ModeBlock":
        """The block restricted to its asymptotically stable part.

        Zero-eigenvalue blocks lose the free phase coordinate. Uncoordinated
        4-dim blocks (k3 = 0, positive eigenvalue) additionally carry one
        unreachable marginal direction with left vector (-d, 0, 1, 0); it is
        projected out the same way as in the dense path.
        """
        blk = self
        if blk.eigenvalue == 0.0:
            keep = [k for k, s in enumerate(blk.states) if s != "x1"]
            blk = ModeBlock(index=blk.index, eigenvalue=blk.eigenvalue,
                            A=blk.A[np.ix_(keep, keep)], B=blk.B[keep, :],
                            C=blk.C[:, keep],
                            states=tuple(blk.states[k] for k in keep))
        elif blk.dim == 4 and blk.A[2, 3] == 0.0:
            d = blk.A[2, 1]
            w = np.array([[-d, 0.0, 1.0, 0.0]]).T
            P = scipy.linalg.null_space(w.T)
            blk = ModeBlock(index=blk.index, eigenvalue=blk.eigenvalue,
                            A=P.T @ blk.A @ P, B=P.T @ blk.B, C=blk.C @ P,
                            states=("s0", "s1", "s2"))
        return blk


def modal_decouple(sys: StateSpace, spectral: SpectralDecomposition) -> list[ModeBlock]:
    """Split a homogeneous closed loop into per-eigenvalue blocks.

    Gather-broadcast: one 4-dim block for the zero mode (phase mean,
    frequency mean, both central states) plus 2-dim oscillator blocks for
    every nonzero eigenvalue. Local laws: one 4-dim block per mode. The
    orthogonal transform is verified to block-diagonalize A to 1e-9
    relative before the blocks are returned.
    """
    if sys.deflated:
        raise UnsupportedForModalPath("modal decoupling expects the undeflated system")
    if sys.hom is None:
        raise UnsupportedForModalPath(
            "modal decoupling needs homogeneous parameters (and a matching "
            "communication graph for the distributed law)")
    m, d = sys.hom
    n = sys.n
    if spectral.n != n:
        raise ShapeError(f"spectral decomposition is for n={spectral.n}, system has n={n}")
    lam = spectral.eigenvalues
    Q = spectral.modal_matrix
    k1, k2, k3 = sys.gains.k1, sys.gains.k2, sys.gains.k3
    if sys.law != "dpiac":
        k3 = 0.0
    sel = sys.selector
    blocks: list[ModeBlock] = []
    cols: list[np.ndarray] = []     # columns of T, original coordinates
    N = sys.dim

    def col(block: str, i: int) -> np.ndarray:
        c = np.zeros(N)
        sl = sys.labels[block]
        if sl.stop - sl.start == n:
            c[sl] = Q[:, i]
        else:                        # central scalar state
            c[sl.start] = 1.0
        return c

    if sys.law == "gbpiac":
        rt_n = math.sqrt(n)
        A0 = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [0.0, -d / m, 0.0, k2 / (m * rt_n)],
            [0.0, d * rt_n, 0.0, 0.0],
            [0.0, -k1 * m * rt_n, -k1, -k2],
        ])
        C0 = {OutputSelector.FREQUENCY_DEVIATION: [0.0, 1.0, 0.0, 0.0],
              OutputSelector.CONTROL_INPUT: [0.0, 0.0, 0.0, k2 / rt_n],
              OutputSelector.TOTAL_CONTROL_INPUT: [0.0, 0.0, 0.0, k2],
              OutputSelector.MARGINAL_COST_SPREAD: [0.0, 0.0, 0.0, 0.0]}[sel]
        B0 = np.zeros((4, sys.B.shape[1]))
        B0[1, :] = Q[:, 0] @ sys.B_in / m
        blocks.append(ModeBlock(0, float(lam[0]), A0, B0, np.array([C0]),
                                ("x1", "x2", "eta", "xi")))
        cols += [col("theta", 0), col("omega", 0), col("eta", 0), col("xi", 0)]
        for i in range(1, n):
            Ai = np.array([[0.0, 1.0], [-lam[i] / m, -d / m]])
            Ci = {OutputSelector.FREQUENCY_DEVIATION: [0.0, 1.0]}.get(sel, [0.0, 0.0])
            Bi = np.zeros((2, sys.B.shape[1]))
            Bi[1, :] = Q[:, i] @ sys.B_in / m
            blocks.append(ModeBlock(i, float(lam[i]), Ai, Bi, np.array([Ci]),
                                    ("x1", "x2")))
            cols += [col("theta", i), col("omega", i)]
    else:
        rt_n = math.sqrt(n)
        for i in range(n):
            li = float(lam[i])
            Ai = np.array([
                [0.0, 1.0, 0.0, 0.0],
                [-li / m, -d / m, 0.0, k2 / m],
                [0.0, d, 0.0, k2 * k3 * li],
                [0.0, -k1 * m, -k1, -k2],
            ])
            us_w = k2 * rt_n if i == 0 else 0.0
            Ci = {OutputSelector.FREQUENCY_DEVIATION: [0.0, 1.0, 0.0, 0.0],
                  OutputSelector.CONTROL_INPUT: [0.0, 0.0, 0.0, k2],
                  OutputSelector.TOTAL_CONTROL_INPUT: [0.0, 0.0, 0.0, us_w],
                  OutputSelector.MARGINAL_COST_SPREAD: [0.0, 0.0, 0.0, k2 * li]}[sel]
            Bi = np.zeros((4, sys.B.shape[1]))
            Bi[1, :] = Q[:, i] @ sys.B_in / m
            blocks.append(ModeBlock(i, li, Ai, Bi, np.array([Ci]),
                                    ("x1", "x2", "x3", "x4")))
            cols += [col("theta", i), col("omega", i), col("eta", i), col("xi", i)]

    T = np.column_stack(cols)
    At = T.T @ sys.A @ T
    expected = np.zeros_like(At)
    pos = 0
    for blk in blocks:
        expected[pos:pos + blk.dim, pos:pos + blk.dim] = blk.A
        pos += blk.dim
    scale = max(float(np.abs(sys.A).max()), 1e-300)
    err = float(np.abs(At - expected).max())
    if err > 1e-9 * scale:
        raise UnsupportedForModalPath(
            f"transform failed to block-diagonalize (residual {err:.2e}); "
            "the system was not assembled from the decomposed Laplacian")
    return blocks
