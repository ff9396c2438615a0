"""Power-network and communication-graph model.

A network is a weighted undirected graph over three node kinds:

* machine nodes carry rotational dynamics (inertia ``M`` and droop ``D``),
* frequency-dependent nodes carry droop only (``D``),
* passive nodes carry neither and enter the model through the algebraic
  power balance alone.

Machine and frequency-dependent nodes together form the controller set;
each of them has a control price ``alpha``. Edge weights are effective
susceptances ``K_ij = B_ij * V_i * V_j`` of loss-less lines.

This module also builds the signed incidence matrix ``E`` of each graph, the
graph Laplacians ``E^T diag(w) E`` used by the closed-loop analysis, and
their spectral decomposition with a deterministic eigenvector convention.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DisconnectedNetwork, ShapeError

__all__ = [
    "NodeKind",
    "Node",
    "PowerNetwork",
    "CommunicationGraph",
    "SpectralDecomposition",
    "HomogeneityReport",
    "build_laplacian",
    "spectral_decompose",
    "check_homogeneous",
]


class NodeKind(Enum):
    MACHINE = "machine"
    FREQ_DEPENDENT = "freq"
    PASSIVE = "passive"


@dataclass(frozen=True)
class Node:
    """One bus of the network.

    ``inertia`` and ``damping`` are per-unit on the system base; ``injection``
    is the net power supply (negative for demand); ``price`` is the quadratic
    control-cost weight, required on controller nodes only.
    """

    id: int
    kind: NodeKind
    inertia: float | None = None
    damping: float | None = None
    injection: float = 0.0
    price: float | None = None

    def __post_init__(self):
        k = self.kind
        if k is NodeKind.MACHINE:
            if self.inertia is None or self.inertia <= 0:
                raise ValueError(f"node {self.id}: machine needs inertia M > 0")
            if self.damping is None or self.damping <= 0:
                raise ValueError(f"node {self.id}: machine needs damping D > 0")
        elif k is NodeKind.FREQ_DEPENDENT:
            if self.inertia is not None:
                raise ValueError(f"node {self.id}: frequency-dependent node carries no inertia")
            if self.damping is None or self.damping <= 0:
                raise ValueError(f"node {self.id}: frequency-dependent node needs damping D > 0")
        else:
            if self.inertia is not None or self.damping is not None:
                raise ValueError(f"node {self.id}: passive node carries no inertia/damping")
            if self.price is not None:
                raise ValueError(f"node {self.id}: passive node has no controller, drop alpha")
        if k is not NodeKind.PASSIVE:
            if self.price is None or self.price <= 0:
                raise ValueError(f"node {self.id}: controller node needs price alpha > 0")

    @property
    def is_controller(self) -> bool:
        return self.kind is not NodeKind.PASSIVE


@dataclass(frozen=True)
class PowerNetwork:
    """Immutable network: nodes plus undirected weighted edges.

    Edges are ``(i, j, K_ij)`` with ``K_ij > 0``; each undirected pair
    appears once. Connectivity is not enforced at construction so that
    diagnostics can still be run on broken cases; ``load_case`` and
    ``build_laplacian`` reject disconnected graphs.
    """

    nodes: tuple[Node, ...]
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        known = set(ids)
        seen = set()
        for i, j, k in self.edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if i not in known or j not in known:
                raise ValueError(f"edge ({i},{j}) references unknown node")
            if not k > 0:
                raise ValueError(f"edge ({i},{j}) needs K > 0")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add(pair)

    # --- index bookkeeping -------------------------------------------------

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes)

    @cached_property
    def index_of(self) -> dict[int, int]:
        return {n.id: k for k, n in enumerate(self.nodes)}

    @cached_property
    def machine_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if n.kind is NodeKind.MACHINE)

    @cached_property
    def freq_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if n.kind is NodeKind.FREQ_DEPENDENT)

    @cached_property
    def passive_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if n.kind is NodeKind.PASSIVE)

    @cached_property
    def controller_ids(self) -> tuple[int, ...]:
        """Controller set: machine plus frequency-dependent nodes, in node order."""
        return tuple(n.id for n in self.nodes if n.is_controller)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    # --- parameter vectors (aligned with the stated id tuples) -------------

    @cached_property
    def dampings(self) -> np.ndarray:
        """Damping over the controller set, in node order."""
        return np.array([n.damping for n in self.nodes if n.is_controller])

    @cached_property
    def injections(self) -> np.ndarray:
        return np.array([n.injection for n in self.nodes])

    @cached_property
    def prices(self) -> np.ndarray:
        return np.array([n.price for n in self.nodes if n.is_controller])

    @cached_property
    def alpha_s(self) -> float:
        """Harmonic aggregate of the controller prices, (sum 1/alpha_i)^-1.

        Cached for the lifetime of the (immutable) network; editing prices
        means building a new network, which recomputes it.
        """
        return 1.0 / float(np.sum(1.0 / self.prices))

    @cached_property
    def incidence(self) -> np.ndarray:
        """Signed incidence matrix, edges by nodes: ``+1`` at ``i`` and
        ``-1`` at ``j`` on the row of edge ``(i, j, K_ij)``."""
        return _incidence(self.index_of, self.edges)

    @cached_property
    def susceptances(self) -> np.ndarray:
        """Edge weights ``K_ij`` in edge order."""
        return np.array([k for _, _, k in self.edges])

    def node(self, node_id: int) -> Node:
        return self.nodes[self.index_of[node_id]]

    def is_connected(self) -> bool:
        return _connected(self.ids, [(i, j) for i, j, _ in self.edges])


@dataclass(frozen=True)
class CommunicationGraph:
    """Weighted undirected coordination graph over controller nodes."""

    weights: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen = set()
        for i, j, w in self.weights:
            if i == j:
                raise ValueError(f"communication self-loop at node {i}")
            if w < 0:
                raise ValueError(f"communication weight ({i},{j}) must be >= 0")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"duplicate communication edge ({i},{j})")
            seen.add(pair)

    def laplacian(self, controller_ids) -> np.ndarray:
        """Laplacian over ``controller_ids`` in the given order."""
        idx = {nid: k for k, nid in enumerate(controller_ids)}
        for i, j, _ in self.weights:
            if i not in idx or j not in idx:
                raise ShapeError(f"communication edge ({i},{j}) touches a non-controller node")
        E = _incidence(idx, self.weights)
        return _laplacian(E, np.array([w for _, _, w in self.weights]))

    def is_connected_over(self, controller_ids) -> bool:
        pairs = [(i, j) for i, j, w in self.weights if w > 0]
        return _connected(tuple(controller_ids), pairs)


def _incidence(index_of: dict[int, int], edges) -> np.ndarray:
    E = np.zeros((len(edges), len(index_of)))
    for e, (i, j, _) in enumerate(edges):
        E[e, index_of[i]] = 1.0
        E[e, index_of[j]] = -1.0
    return E


def _laplacian(E: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``E^T diag(w) E``: off-diagonal ``-w_ij``, zero row sums."""
    return E.T @ (w[:, None] * E)


def _is_symmetric(M: np.ndarray) -> bool:
    """Whether the square ``M`` equals its transpose to 1e-12 max(1, max |M|)
    absolute; a NaN anywhere fails."""
    scale = float(np.abs(M).max())
    return bool(np.allclose(M, M.T, rtol=0, atol=1e-12 * max(1.0, scale)))


def _connected(ids, pairs) -> bool:
    return _components(ids, pairs) == 1


def _components(ids, pairs) -> int:
    """Number of connected components of the graph on ``ids`` whose edges
    are those of ``pairs`` with both ends in ``ids``."""
    adj = {i: [] for i in ids}
    for i, j in pairs:
        if i in adj and j in adj:
            adj[i].append(j)
            adj[j].append(i)
    seen, count = set(), 0
    for root in ids:
        if root in seen:
            continue
        count += 1
        stack = [root]
        seen.add(root)
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return count


# --- Laplacians and spectra ------------------------------------------------


def build_laplacian(net: PowerNetwork) -> np.ndarray:
    """Weighted Laplacian of the power graph over all nodes, in node order.

    Off-diagonal entries are ``-K_ij``; row sums are zero. Raises
    :class:`DisconnectedNetwork` when the graph is not connected, because a
    disconnected Laplacian silently breaks every downstream zero-mode
    argument.
    """
    if not net.is_connected():
        raise DisconnectedNetwork("power graph is not connected")
    return _laplacian(net.incidence, net.susceptances)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition ``Q^T L Q = diag(eigenvalues)`` of a Laplacian.

    Eigenvalues ascend, the zero eigenvalue is snapped to exactly 0, and each
    eigenvector has its first non-negligible component positive so repeated
    runs produce identical matrices. For connected graphs the first column is
    exactly ``1/sqrt(n)``.
    """

    eigenvalues: np.ndarray
    modal_matrix: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def algebraic_connectivity(self) -> float:
        return float(self.eigenvalues[1]) if self.n > 1 else math.inf


_ZERO_MODE_TOL = 1e-9


def spectral_decompose(L: np.ndarray) -> SpectralDecomposition:
    """Decompose a symmetric PSD Laplacian; see :class:`SpectralDecomposition`.

    Any |lambda_1| below 1e-9 relative to the largest eigenvalue is treated
    as the structural zero mode and snapped, so downstream deflation never
    divides by numerical dust.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ShapeError(f"Laplacian must be square, got shape {L.shape}")
    if not _is_symmetric(L):
        raise ShapeError("Laplacian must be symmetric")
    lam, Q = np.linalg.eigh(L)
    scale = max(float(lam[-1]), 0.0)
    lam = lam.copy()
    if abs(lam[0]) <= _ZERO_MODE_TOL * max(scale, 1e-300):
        lam[0] = 0.0
    # deterministic sign: first component above noise level is positive
    for k in range(Q.shape[1]):
        col = Q[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(1.0, float(np.abs(col).max())))[0]
        if len(nz) and col[nz[0]] < 0:
            Q[:, k] = -col
    n = L.shape[0]
    if n == 1:
        Q = np.array([[1.0]])
    elif lam[0] == 0.0 and lam[1] > 0:
        # simple zero mode: its eigenvector is the uniform vector exactly
        Q[:, 0] = 1.0 / math.sqrt(n)
    return SpectralDecomposition(eigenvalues=lam, modal_matrix=Q)


# --- homogeneity diagnostic -------------------------------------------------


@dataclass(frozen=True)
class HomogeneityReport:
    """Outcome of the homogeneity check gating the closed-form analysis.

    ``passed`` requires machine-only topology, identical inertia/damping,
    unit prices, and (when a communication graph is given) coordination
    weights equal to the line susceptances edge for edge.
    """

    passed: bool
    reasons: tuple[str, ...] = field(default=())
    m: float | None = None
    d: float | None = None


def check_homogeneous(net: PowerNetwork,
                      comm: CommunicationGraph | None = None) -> HomogeneityReport:
    """Diagnose whether the closed-form transient formulas apply to ``net``.

    Never raises; returns a report listing every violated condition so CLI
    validation can show them all at once.
    """
    reasons = []
    if net.freq_ids:
        reasons.append("frequency-dependent nodes present")
    if net.passive_ids:
        reasons.append("passive nodes present")
    machines = [n for n in net.nodes if n.kind is NodeKind.MACHINE]
    m = d = None
    if machines:
        m0, d0 = machines[0].inertia, machines[0].damping
        if any(n.inertia != m0 for n in machines):
            reasons.append("inertias not uniform")
        else:
            m = m0
        if any(n.damping != d0 for n in machines):
            reasons.append("dampings not uniform")
        else:
            d = d0
    else:
        reasons.append("no machine nodes")
    if any(n.price != 1.0 for n in net.nodes if n.is_controller):
        reasons.append("prices not uniform (alpha_i = 1 required)")
    if comm is not None:
        power = {(min(i, j), max(i, j)): k for i, j, k in net.edges}
        talk = {(min(i, j), max(i, j)): w for i, j, w in comm.weights if w > 0}
        if power != talk:
            reasons.append("communication weights differ from line susceptances")
    return HomogeneityReport(passed=not reasons, reasons=tuple(reasons), m=m, d=d)


def _homogeneous_spectrum(net: PowerNetwork) -> SpectralDecomposition:
    """The spectrum that the closed forms and the modal blocks of a network
    passing :func:`check_homogeneous` are evaluated on: that of the power
    graph's Laplacian. Both read it from here alone."""
    return spectral_decompose(build_laplacian(net))
