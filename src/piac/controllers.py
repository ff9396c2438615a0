"""Secondary frequency control laws and dispatch diagnostics.

The three laws are one two-stage integrator; they differ only in how the
estimated power imbalance is allocated:

* gather-broadcast (``gbpiac``): one central pair of states, allocation by
  inverse price,
* distributed (``dpiac``): one pair per controller node, with a consensus
  term on the marginal costs over a communication graph,
* decentralized (``decpiac``): one pair per controller node, no
  coordination at any k3.

Every law is linear in the frequencies and its own states. A
:class:`ControlLaw`, built per (network, comm, law, gains), holds that
difference as one map: ``pair_of``, the pair each controller reads, and
``pair_price``, the price of each pair. So the maps are written once for
all three laws. The network model of :mod:`piac.closedloop` evaluates them,
so the simulator and the closed-loop matrices both read this one copy, and
the trace builders read the inputs and marginal costs from them.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (DegenerateModel, DomainError, GainConstraintError,
                     NoControllers, ShapeError)
from .netmodel import (CommunicationGraph, HomogeneityReport, NodeKind,
                       PowerNetwork, _components, check_homogeneous)

__all__ = [
    "GainSchedule",
    "ControlLaw",
    "LAWS",
    "law_homogeneity",
    "optimal_dispatch",
    "synchronized_frequency",
]

LAWS = ("gbpiac", "dpiac", "decpiac")


@dataclass(frozen=True)
class GainSchedule:
    """Control gains k1 > 0, k2 > 0, k3 >= 0, all finite.

    The two-stage integrator avoids input overshoot when ``k2 >= 4*k1``;
    schedules below that line are rejected. The closed-form transient
    results additionally require ``k2 == 4*k1`` exactly, exposed here as
    ``analytic_mode``.
    """

    k1: float
    k2: float
    k3: float = 0.0

    def __post_init__(self):
        for name, value in (("k1", self.k1), ("k2", self.k2), ("k3", self.k3)):
            if not math.isfinite(value):
                raise GainConstraintError(f"{name} must be finite, got {value}")
        if not self.k1 > 0:
            raise GainConstraintError(f"k1 must be positive, got {self.k1}")
        if not self.k2 > 0:
            raise GainConstraintError(f"k2 must be positive, got {self.k2}")
        if self.k3 < 0:
            raise GainConstraintError(f"k3 must be non-negative, got {self.k3}")
        if self.k2 < 4.0 * self.k1:
            raise GainConstraintError(
                f"k2 = {self.k2} violates k2 >= 4*k1 = {4.0 * self.k1}")

    @classmethod
    def analytic(cls, k1: float, k3: float = 0.0) -> "GainSchedule":
        """Schedule with k2 pinned to 4*k1, as the closed forms assume."""
        return cls(k1=k1, k2=4.0 * k1, k3=k3)

    @property
    def analytic_mode(self) -> bool:
        return self.k2 == 4.0 * self.k1


def law_homogeneity(net: PowerNetwork, comm: CommunicationGraph | None, law: str,
                    gains: GainSchedule, spread: bool) -> HomogeneityReport:
    """Homogeneity report for one law, gains and output.

    The communication graph has to mirror the grid wherever the loop reads
    it: the consensus term of ``dpiac`` at k3 > 0 (at k3 = 0 the loop is
    ``decpiac``'s) and, with ``spread``, the marginal-cost spread of the
    local laws. The ``gbpiac`` spread is identically zero and reads no
    graph.
    """
    reads_comm = (law == "dpiac" and gains.k3 > 0) or (law != "gbpiac" and spread)
    return check_homogeneous(net, comm if reads_comm else None)


def _check(x: np.ndarray, n: int, what: str) -> None:
    if x.shape[-1:] != (n,):
        raise ShapeError(f"{what} must have shape (..., {n}), got {x.shape}")


@dataclass(frozen=True, eq=False)
class ControlLaw:
    """One law's integrator pairs on one network, as linear maps.

    Controller ``i`` (``net.controller_ids`` order) reads the integrator
    pair ``(eta, xi)`` number ``pair_of[i]``, priced at ``pair_price``:
    the one central pair at ``alpha_s`` under ``gbpiac``, its own at its
    ``alpha`` under the local laws. :meth:`build` sets this map and
    ``gbpiac``'s zero ``L_comm``; past it, only the central sums of
    ``omega`` and :meth:`offsets` read the law. ``omega`` runs over the
    controller set. The maps take arrays and allow leading batch axes, so
    a map applied to identity columns is its matrix. ``gains`` are the
    gains the maps read: k3 is zero except under ``dpiac``, the only law
    with a consensus term.
    """

    name: str
    gains: GainSchedule
    D: np.ndarray                 # damping per controller
    M: np.ndarray                 # inertia per controller, 0 at load buses
    alpha: np.ndarray             # price per controller
    pair_of: np.ndarray           # pair each controller reads
    pair_price: np.ndarray        # price per pair
    L_comm: np.ndarray | None     # communication Laplacian over the controllers

    @classmethod
    def build(cls, net: PowerNetwork, comm: CommunicationGraph | None, law: str,
              gains: GainSchedule) -> "ControlLaw":
        """The law named ``law`` on ``net``. An unknown law, or ``dpiac``
        without the communication graph its consensus term runs over, raises
        :class:`DomainError`; a network without controllers raises
        :class:`NoControllers`."""
        if law not in LAWS:
            raise DomainError(f"unknown law {law!r}")
        if not net.controller_ids:
            raise NoControllers("network has no controller nodes: every bus is passive")
        if law == "dpiac" and comm is None:
            raise DomainError("distributed law needs a communication graph")
        if law != "dpiac":
            # only the distributed law has a consensus term to weigh
            gains = replace(gains, k3=0.0)
        M = np.array([node.inertia if node.kind is NodeKind.MACHINE else 0.0
                      for node in map(net.node, net.controller_ids)])
        n = len(M)
        if law == "gbpiac":
            # one central pair at the aggregate price; equal marginal costs
            # leave nothing to spread
            pair_of, pair_price = np.zeros(n, dtype=int), np.array([net.alpha_s])
            L_comm = np.zeros((n, n))
        else:
            pair_of, pair_price = np.arange(n), net.prices
            L_comm = comm.laplacian(net.controller_ids) if comm is not None else None
        return cls(name=law, gains=gains, D=net.dampings, M=M, alpha=net.prices,
                   pair_of=pair_of, pair_price=pair_price, L_comm=L_comm)

    @cached_property
    def central(self) -> bool:
        return self.name == "gbpiac"

    @cached_property
    def pairs(self) -> int:
        return len(self.pair_price)

    @cached_property
    def conserved(self) -> int:
        """Number of quantities the closed loop conserves: ``eta - D theta``
        summed over each set of pairs that the k3 links join. That is one
        under ``gbpiac``, one per connected component of the communication
        graph under ``dpiac`` with k3 > 0, and one per controller
        otherwise."""
        links = zip(*np.nonzero(np.triu(self.L_comm, 1))) if self.gains.k3 else ()
        return _components(range(self.pairs), links)

    def _gather(self, weight: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """``weight * omega`` summed into each pair: the central sum under
        ``gbpiac``, per controller otherwise."""
        if self.central:
            return (omega @ weight)[..., None]
        return weight * omega

    def d_eta(self, omega: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Imbalance estimate: damping power, plus the consensus term
        ``k3 L_comm mc``, which sums to zero over the network. Only ``dpiac``
        keeps a nonzero k3."""
        _check(omega, len(self.D), "omega")
        _check(xi, self.pairs, "xi")
        d_eta = self._gather(self.D, omega)
        if self.gains.k3:
            d_eta = d_eta + self.gains.k3 * self.spread(xi)
        return d_eta

    def d_xi(self, omega: np.ndarray, eta: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Second integrator: ``-k1 (M omega + eta) - k2 xi``."""
        _check(omega, len(self.D), "omega")
        _check(eta, self.pairs, "eta")
        _check(xi, self.pairs, "xi")
        k1, k2 = self.gains.k1, self.gains.k2
        return -k1 * (self._gather(self.M, omega) + eta) - k2 * xi

    def u(self, xi: np.ndarray) -> np.ndarray:
        """Control input per controller, ``k2 xi`` of its pair by the price
        ratio: ``gbpiac`` broadcasts ``k2 xi_s`` by inverse price, which
        equalizes the marginal costs by construction."""
        _check(xi, self.pairs, "xi")
        ratio = self.pair_price[self.pair_of] / self.alpha
        return ratio * self.gains.k2 * xi[..., self.pair_of]

    def mc(self, xi: np.ndarray) -> np.ndarray:
        """Marginal cost ``alpha_i u_i`` per controller."""
        _check(xi, self.pairs, "xi")
        return (self.gains.k2 * self.pair_price)[self.pair_of] * xi[..., self.pair_of]

    def spread(self, xi: np.ndarray) -> np.ndarray:
        """Marginal-cost spread ``L_comm mc``; identically zero for ``gbpiac``."""
        _check(xi, self.pairs, "xi")
        if self.L_comm is None:
            raise DomainError("spread output needs a communication graph to difference over")
        return self.mc(xi) @ self.L_comm.T

    def offsets(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Pair state ``(eta, xi)`` holding the inputs ``u`` at zero frequency."""
        u = np.asarray(u, dtype=float)
        _check(u, len(self.D), "u")
        k1, k2 = self.gains.k1, self.gains.k2
        xi = np.array([float(np.sum(u)) / k2]) if self.central else u / k2
        return -(k2 / k1) * xi, xi


def optimal_dispatch(net: PowerNetwork) -> np.ndarray:
    """Cost-optimal steady-state inputs over the controller set.

    Solves min sum_i alpha_i u_i^2 / 2 subject to total balance: equal
    marginal costs give ``u_i = -P_s * alpha_s / alpha_i``. Capacity limits
    are deliberately not modeled.
    """
    if not net.controller_ids:
        raise NoControllers("network has no controller nodes")
    p_total = float(np.sum(net.injections))
    return -p_total * net.alpha_s / net.prices


def synchronized_frequency(net: PowerNetwork, u) -> float:
    """Common steady frequency deviation for inputs ``u`` over the controllers."""
    u = np.asarray(u, dtype=float)
    nk = len(net.controller_ids)
    if u.shape != (nk,):
        raise ShapeError(f"u must have shape ({nk},), got {u.shape}")
    total_damping = float(np.sum(net.dampings))
    if total_damping <= 0:
        raise DegenerateModel("total damping must be positive")
    return (float(np.sum(net.injections)) + float(np.sum(u))) / total_damping
