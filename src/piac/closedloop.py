"""Linearized closed-loop systems and their modal structure.

State ordering is fixed as (theta, omega, eta, xi) for every law: phase
angles, frequency deviations, then the controller integrator pairs (one
pair for the gather-broadcast law, one per node for the local laws). The
controller blocks are the matrices of the law's maps in
:class:`~piac.controllers.ControlLaw`, so one assembler serves every law.
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
from .errors import (DomainError, NotDeflatable, ShapeError,
                     UnsupportedForLinearPath, UnsupportedForModalPath)
from .netmodel import (CommunicationGraph, PowerNetwork, SpectralDecomposition,
                       build_laplacian)

__all__ = [
    "OutputSelector",
    "StateSpace",
    "OpenLoop",
    "ModeBlock",
    "assemble_open_loop",
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
class OpenLoop:
    """Primary-control network pieces: inertia, damping, Laplacian."""

    M: np.ndarray   # inertia vector, machine order = node order
    D: np.ndarray   # damping vector
    L: np.ndarray   # power-graph Laplacian

    @property
    def n(self) -> int:
        return len(self.M)

    @property
    def A(self) -> np.ndarray:
        """Open-loop matrix over (theta, omega) with u = 0."""
        n = self.n
        A = np.zeros((2 * n, 2 * n))
        A[:n, n:] = np.eye(n)
        A[n:, :n] = -self.L / self.M[:, None]
        A[n:, n:] = -np.diag(self.D / self.M)
        return A


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


def assemble_open_loop(net: PowerNetwork) -> OpenLoop:
    """Linearized swing dynamics without secondary control."""
    _machine_only(net, "open-loop assembly")
    return OpenLoop(M=net.inertias.copy(), D=net.dampings.copy(),
                    L=build_laplacian(net))


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
    """Closed loop of any law: the open loop plus the law's linear maps."""
    _machine_only(net, f"{law} closed loop")
    ctrl = ControlLaw.build(net, comm, law, gains)
    ol = assemble_open_loop(net)
    n, k = ol.n, ctrl.pairs
    B_in = _b_in(net, B_in)
    N = 2 * n + 2 * k
    labels = {"theta": slice(0, n), "omega": slice(n, 2 * n),
              "eta": slice(2 * n, 2 * n + k), "xi": slice(2 * n + k, N)}
    omega, pair = labels["omega"], slice(2 * n, N)
    A = np.zeros((N, N))
    A[:2 * n, :2 * n] = ol.A
    A[omega, labels["xi"]] = ctrl.u(np.eye(k)).T / ol.M[:, None]
    A[pair, n:] = ctrl.jacobian()
    B = np.zeros((N, n))
    B[omega, :] = B_in / ol.M[:, None]
    C = _output_matrix(selector, ctrl, n, N, labels)
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
