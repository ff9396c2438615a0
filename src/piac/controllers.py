"""Secondary frequency control laws and dispatch diagnostics.

The three laws are one two-stage integrator; they differ only in how the
estimated power imbalance is allocated:

* gather-broadcast (``gbpiac``): one central pair of states, allocation by
  inverse price,
* distributed (``dpiac``): one pair per controller node, with a consensus
  term on the marginal costs over a communication graph,
* decentralized (``decpiac``): one pair per controller node, no
  coordination at any k3.

Every law is linear in the frequencies and its own states. Each is written
once, as the maps of a :class:`ControlLaw` built per (network, comm, law,
gains). The network model of :mod:`piac.closedloop` evaluates them, so the
simulator and the closed-loop matrices both read this one copy, and the
trace builders read the inputs and marginal costs from them.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateModel, DomainError, GainConstraintError,
                     NoControllers, ShapeError)
from .netmodel import (CommunicationGraph, HomogeneityReport, NodeKind,
                       PowerNetwork, check_homogeneous)

__all__ = [
    "GainSchedule",
    "ControlLaw",
    "LAWS",
    "check_law",
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


def check_law(law: str, comm: CommunicationGraph | None) -> None:
    """Raise :class:`DomainError` for an unknown law, or for the distributed
    law without the communication graph its consensus term runs over."""
    if law not in LAWS:
        raise DomainError(f"unknown law {law!r}")
    if law == "dpiac" and comm is None:
        raise DomainError("distributed law needs a communication graph")


def law_homogeneity(net: PowerNetwork, comm: CommunicationGraph | None, law: str,
                    spread: bool) -> HomogeneityReport:
    """Homogeneity report for one law and output.

    The communication graph has to mirror the grid wherever the law reads
    it: the consensus term of ``dpiac`` and, with ``spread``, the
    marginal-cost spread of the local laws. The ``gbpiac`` spread is
    identically zero and reads no graph.
    """
    reads_comm = law == "dpiac" or (law == "decpiac" and spread)
    return check_homogeneous(net, comm if reads_comm else None)


def _check(x: np.ndarray, n: int, what: str) -> None:
    if x.shape[-1:] != (n,):
        raise ShapeError(f"{what} must have shape (..., {n}), got {x.shape}")


@dataclass(frozen=True, eq=False)
class ControlLaw:
    """One law's integrator pairs on one network, as linear maps.

    There are ``pairs`` integrator pairs ``(eta, xi)``: one central pair for
    ``gbpiac``, one per controller node (``net.controller_ids`` order) for
    the local laws. ``omega`` runs over the controller set. The maps take
    arrays and allow leading batch axes, so a map applied to identity
    columns is its matrix.
    """

    name: str
    gains: GainSchedule
    D: np.ndarray                 # damping per controller
    M: np.ndarray                 # inertia per controller, 0 at load buses
    machines: np.ndarray          # controller positions of the machines
    alpha: np.ndarray             # price per controller
    alpha_s: float
    L_comm: np.ndarray | None     # communication Laplacian over the controllers

    @classmethod
    def build(cls, net: PowerNetwork, comm: CommunicationGraph | None, law: str,
              gains: GainSchedule) -> "ControlLaw":
        check_law(law, comm)
        kinds = [net.node(i).kind for i in net.controller_ids]
        M = np.array([net.node(i).inertia if kind is NodeKind.MACHINE else 0.0
                      for i, kind in zip(net.controller_ids, kinds)])
        machines = np.array([k for k, kind in enumerate(kinds)
                             if kind is NodeKind.MACHINE], dtype=int)
        return cls(name=law, gains=gains, D=net.dampings, M=M, machines=machines,
                   alpha=net.prices, alpha_s=net.alpha_s,
                   L_comm=comm.laplacian(net.controller_ids) if comm is not None else None)

    @cached_property
    def central(self) -> bool:
        return self.name == "gbpiac"

    @cached_property
    def pairs(self) -> int:
        return 1 if self.central else len(self.D)

    @cached_property
    def M_m(self) -> np.ndarray:
        """Inertia per machine."""
        return self.M[self.machines]

    @cached_property
    def share(self) -> np.ndarray:
        """Input per unit of the central ``xi_s``: ``k2 alpha_s / alpha_i``."""
        return (self.alpha_s / self.alpha) * self.gains.k2

    @property
    def pair_of(self) -> np.ndarray:
        """Index of the pair each controller reads: the central one under
        ``gbpiac``, its own under the local laws."""
        return np.zeros(len(self.D), dtype=int) if self.central else np.arange(len(self.D))

    def d_eta(self, omega: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Imbalance estimate: damping power, plus for ``dpiac`` the
        consensus term ``k3 L_comm mc``, which sums to zero over the network.
        ``decpiac`` has no consensus term at any k3."""
        _check(omega, len(self.D), "omega")
        _check(xi, self.pairs, "xi")
        if self.central:
            return (omega @ self.D)[..., None]
        d_eta = self.D * omega
        if self.name == "dpiac":
            d_eta = d_eta + self.gains.k3 * (self.mc(xi) @ self.L_comm.T)
        return d_eta

    def d_xi(self, omega: np.ndarray, eta: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Second integrator: ``-k1 (M omega + eta) - k2 xi``."""
        _check(omega, len(self.D), "omega")
        _check(eta, self.pairs, "eta")
        _check(xi, self.pairs, "xi")
        k1, k2 = self.gains.k1, self.gains.k2
        if self.central:
            m_omega = (omega[..., self.machines] @ self.M_m)[..., None]
        else:
            m_omega = self.M * omega
        return -k1 * (m_omega + eta) - k2 * xi

    def u(self, xi: np.ndarray) -> np.ndarray:
        """Control input per controller. ``gbpiac`` broadcasts ``k2 xi_s`` by
        inverse price, which equalizes the marginal costs by construction."""
        _check(xi, self.pairs, "xi")
        if self.central:
            return self.share * xi[..., :1]
        return self.gains.k2 * xi

    def mc(self, xi: np.ndarray) -> np.ndarray:
        """Marginal cost ``alpha_i u_i`` per controller."""
        _check(xi, self.pairs, "xi")
        if self.central:
            return self.gains.k2 * self.alpha_s * np.ones(len(self.D)) * xi[..., :1]
        return self.gains.k2 * self.alpha * xi

    def spread(self, xi: np.ndarray) -> np.ndarray:
        """Marginal-cost spread ``L_comm mc``; identically zero for ``gbpiac``."""
        _check(xi, self.pairs, "xi")
        if self.central:
            return np.zeros(xi.shape[:-1] + (len(self.D),))
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
