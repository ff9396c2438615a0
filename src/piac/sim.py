"""Time-domain simulation of the controlled network.

The full model keeps the sine coupling: machine nodes integrate the swing
dynamics, frequency-dependent nodes have their frequency pinned by the
local power balance, and passive-node phases are algebraic states solved by
damped Newton inside every right-hand-side evaluation (semi-explicit
index-1 treatment). A ``model="linear"`` flag swaps the sine for its
linearization to expose the small-angle agreement directly.

One network model, coupled through the grid's signed incidence matrix,
takes states with leading (path, row) axes, and one damped Newton, element
by element, solves both the equilibrium power flow and the passive balance.
Deterministic runs integrate with LSODA, which switches between Adams and
BDF methods as the problem's stiffness demands (Petzold, SIAM J. Sci. Stat.
Comput. 4(1), 1983): low-damping load buses put closed-loop eigenvalues far
into the left half-plane (down to about -235 on ``ieee39-like``), where an
explicit scheme is held to tiny steps by stability, not accuracy. Its
Jacobian is a forward difference over all unit perturbations, taken in one
batched right-hand-side call. Stochastic runs step the whole ensemble as one
(paths, dim) state with Euler-Maruyama at a fixed step. White-noise
disturbances at any node kind are injected as per-step load jitter
``sigma * N(0,1) / sqrt(h)``, which for differential states reduces to the
standard Euler-Maruyama increment and for algebraic states is the
frozen-over-the-step reading of white noise in the power balance. Traces
rebuild the algebraic states of the recorded rows in batched solves.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .closedloop import _phase_complement, assemble
# kept importable here: the benchmark's tracer test checks that a wrapped
# function is also patched where another module imported it
from .closedloop import assemble_dpiac  # noqa: F401
from .controllers import ControlLaw, GainSchedule, optimal_dispatch
from .errors import (DAESolveError, DomainError, InsufficientHorizon,
                     NumericalBlowup)
from .netmodel import CommunicationGraph, NodeKind, PowerNetwork
from .scenario import Scenario, ScenarioKind

__all__ = [
    "Scenario", "ScenarioKind", "Trace", "Metrics", "Equilibrium",
    "find_equilibrium", "simulate_deterministic", "simulate_stochastic",
    "compute_metrics", "write_trace_csv", "write_ensemble_csv",
]

log = logging.getLogger(__name__)

_BLOWUP_LIMIT = 1e6
# relative forward-difference step of the Jacobian, sqrt of the machine epsilon
_FD_STEP = math.sqrt(np.finfo(float).eps)
# recorded rows per path rebuilt in one batched solve. Blocks of 256 rows
# made the trace rebuild of the sim benchmark 4x slower on a shared 2-CPU
# host, where their matrix products go multithreaded in BLAS.
_TRACE_BLOCK = 64


def _note_gain_ratio(gains: GainSchedule) -> None:
    # any k2 >= 4 k1 integrates fine; only the closed-form cross-checks
    # insist on equality
    if not gains.analytic_mode:
        log.info("simulating with k2 = %g != 4*k1 = %g; closed-form "
                 "comparisons are unavailable at this schedule",
                 gains.k2, 4.0 * gains.k1)


@dataclass(frozen=True)
class Trace:
    """Recorded trajectory on a uniform grid.

    ``theta`` covers every node; ``omega`` is NaN on passive nodes (they have
    no frequency state). Controller columns run over the controller set; for
    the gather-broadcast law the shared central pair is written on every
    controller column.
    """

    t: np.ndarray
    node_ids: tuple[int, ...]
    theta: np.ndarray            # (T, n_nodes)
    omega: np.ndarray            # (T, n_nodes), NaN on passive columns
    controller_ids: tuple[int, ...]
    eta: np.ndarray              # (T, n_controllers)
    xi: np.ndarray               # (T, n_controllers)
    u: np.ndarray                # (T, n_controllers)
    mc: np.ndarray               # (T, n_controllers)
    law: str

    @property
    def omega_controllers(self) -> np.ndarray:
        cols = [self.node_ids.index(i) for i in self.controller_ids]
        return self.omega[:, cols]


@dataclass(frozen=True)
class Metrics:
    """Transient metrics; deterministic (S, C) or stochastic (E_S, E_C)."""

    S: float | None = None
    C: float | None = None
    E_S: float | None = None
    E_C: float | None = None
    E_S_se: float | None = None
    E_C_se: float | None = None
    t0: float | None = None
    burn_in: float | None = None


@dataclass(frozen=True)
class Equilibrium:
    theta: np.ndarray            # all nodes, mean zero
    eta: np.ndarray
    xi: np.ndarray
    u: np.ndarray                # controller inputs at the optimum


# --- internal machinery -------------------------------------------------------


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

    def at_rest(self, eq: Equilibrium) -> np.ndarray:
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


def find_equilibrium(net: PowerNetwork, law: str, gains: GainSchedule,
                     comm: CommunicationGraph | None = None,
                     model: str = "sin") -> Equilibrium:
    """Steady state with the secondary loop holding the synchronized
    frequency at zero: optimal inputs, matching controller offsets, and the
    zero-mean phase profile solving the (sine or linearized) power flow."""
    model_obj = _SimModel(net, comm, law, gains, model)
    u_eq = optimal_dispatch(net)
    inj = net.injections.copy()
    inj[model_obj.mf] += u_eq
    # reduced Newton on the zero-mean complement of the phase space
    basis = _phase_complement(net.n_nodes)
    F = model_obj.E @ basis
    jacobian = _weighted_gram(F)
    target = inj @ basis
    z = _damped_newton(lambda z: target - model_obj.line_flows(z @ F.T) @ F,
                       lambda z: jacobian(model_obj.stiffness(z @ F.T)),
                       np.zeros(net.n_nodes - 1),
                       1e-12 * max(1.0, float(np.abs(inj).max())), "power-flow")
    eta, xi = model_obj.law.offsets(u_eq)
    return Equilibrium(theta=basis @ z, eta=eta, xi=xi, u=u_eq)


def _record_grid(t_end: float, h: float) -> np.ndarray:
    n_rec = int(round(t_end / h))
    if abs(n_rec * h - t_end) > 1e-9 * max(1.0, t_end):
        n_rec = int(math.floor(t_end / h))
    return np.linspace(0.0, n_rec * h, n_rec + 1)


def _effective_injection(net, scenario, t_onset_passed: bool) -> np.ndarray:
    p = net.injections.copy()
    if t_onset_passed:
        idx = net.index_of
        for nid, dp in scenario.steps.items():
            p[idx[nid]] += dp
    return p


def _check_scenario_nodes(net, scenario):
    known = set(net.ids)
    bad = [i for i in list(scenario.steps) + list(scenario.sigma) if i not in known]
    if bad:
        raise DomainError(f"scenario references unknown node(s) {bad}")


def simulate_deterministic(net: PowerNetwork, comm: CommunicationGraph | None,
                           law: str, gains: GainSchedule, scenario: Scenario,
                           model: str = "sin", rtol: float = 1e-8,
                           atol: float = 1e-10, stride: int = 1) -> Trace:
    """Step-load response from the pre-disturbance equilibrium.

    LSODA integrates at ``rtol``/``atol`` with the forward-difference
    :meth:`_SimModel.jacobian`, one method for every network: its own
    stiffness detection takes Adams steps where the dynamics are not stiff.
    Integration restarts at the onset so the load step never straddles an
    adaptive step. Output lands on the uniform grid ``scenario.h * stride``.
    """
    if scenario.kind is not ScenarioKind.STEP:
        raise DomainError("simulate_deterministic needs a step scenario")
    if stride < 1:
        raise DomainError(f"record stride must be at least 1, got {stride}")
    _check_scenario_nodes(net, scenario)
    _note_gain_ratio(gains)
    model_obj = _SimModel(net, comm, law, gains, model)
    eq = find_equilibrium(net, law, gains, comm, model)
    x0 = model_obj.at_rest(eq)
    onset = 0.0 if scenario.onset is None else scenario.onset
    grid = _record_grid(scenario.t_end, scenario.h * stride)
    p_pre = _effective_injection(net, scenario, False)
    p_post = _effective_injection(net, scenario, True)

    ts, xs = [], []
    segments = [(0.0, onset, p_pre), (onset, scenario.t_end, p_post)]
    x_start = x0
    for seg_a, seg_b, p_eff in segments:
        if seg_b <= seg_a + 1e-15:
            continue
        pts = grid[(grid > seg_a + 1e-12) & (grid <= seg_b + 1e-12)]
        if not ts:
            pts = np.concatenate([[seg_a], pts])
        # always land on the segment end so the next segment restarts exactly
        ends_on_grid = len(pts) > 0 and abs(pts[-1] - seg_b) < 1e-12
        t_eval = pts if ends_on_grid else np.concatenate([pts, [seg_b]])
        sol = solve_ivp(lambda t, x: model_obj.rhs(x, p_eff), (seg_a, seg_b),
                        x_start, method="LSODA", rtol=rtol, atol=atol,
                        t_eval=t_eval,
                        jac=lambda t, x: model_obj.jacobian(x, p_eff))
        if not sol.success:
            raise NumericalBlowup(f"integration failed: {sol.message}")
        if sol.y.size and not np.all(np.isfinite(sol.y)):
            raise NumericalBlowup("non-finite state during integration")
        x_start = sol.y[:, -1]
        keep = len(t_eval) if ends_on_grid else len(t_eval) - 1
        ts.append(sol.t[:keep])
        xs.append(sol.y[:, :keep].T)
    t = np.concatenate(ts)
    X = np.vstack(xs)
    if np.abs(X).max() > _BLOWUP_LIMIT:
        raise NumericalBlowup("state magnitude exceeded blow-up limit")
    stepped = t >= onset - 1e-12
    P = np.where(stepped[:, None], p_post, p_pre)
    return _traces(model_obj, t, X[None], P[None])[0]


def _traces(model_obj, t, X, P) -> list[Trace]:
    """One trace per path from packed states ``X`` of shape (paths, T, dim)
    recorded under the injections ``P`` (paths, T, n_nodes).

    The algebraic node states are rebuilt for all paths at once, in blocks
    of ``_TRACE_BLOCK`` rows: one batched solve per block, warm-started from
    the block before. The blocks bound the memory the batched Newton takes.
    """
    net, law = model_obj.net, model_obj.law
    theta = np.empty(X.shape[:-1] + (model_obj.n,))
    omega = np.empty_like(theta)
    for a in range(0, X.shape[1], _TRACE_BLOCK):
        rows = slice(a, a + _TRACE_BLOCK)
        theta[:, rows], omega[:, rows] = model_obj.observables(X[:, rows], P[:, rows])
    _, _, eta, xi = model_obj.unpack(X)
    u, mc = law.u(xi), law.mc(xi)
    # controller columns: the central pair on every column under gbpiac
    eta, xi = eta[..., law.pair_of], xi[..., law.pair_of]
    return [Trace(t=t, node_ids=net.ids, theta=theta[p], omega=omega[p],
                  controller_ids=net.controller_ids, eta=eta[p], xi=xi[p],
                  u=u[p], mc=mc[p], law=law.name)
            for p in range(X.shape[0])]


def simulate_stochastic(net: PowerNetwork, comm: CommunicationGraph | None,
                        law: str, gains: GainSchedule, scenario: Scenario,
                        model: str = "sin", record_stride: int | None = None
                        ) -> tuple[list[Trace], Metrics]:
    """Euler-Maruyama ensemble under white-noise load disturbances.

    All paths step together as one (paths, dim) state. Per-path noise
    streams are spawned deterministically from the scenario seed, so a path
    does not depend on how many others run beside it. The drift is the
    assembled closed-loop matrix on machine-only networks with
    ``model="linear"`` (there the packed state is the closed-loop state) and
    the model's right-hand side everywhere else.
    """
    if scenario.kind is not ScenarioKind.NOISE:
        raise DomainError("simulate_stochastic needs a noise scenario")
    if scenario.seed is None:
        raise DomainError("stochastic runs need a seed for reproducibility")
    _check_scenario_nodes(net, scenario)
    _note_gain_ratio(gains)
    paths = scenario.paths if scenario.paths is not None else 20
    burn_in = scenario.burn_in if scenario.burn_in is not None else 50.0
    if record_stride is None:
        record_stride = max(1, int(round(0.1 / scenario.h)))

    model_obj = _SimModel(net, comm, law, gains, model)
    eq = find_equilibrium(net, law, gains, comm, model)
    p = net.injections
    if model == "linear" and not net.freq_ids and not net.passive_ids:
        sys = assemble(net, comm, law, gains)
        A_T, B_T = sys.A.T, sys.B.T
        b = model_obj.rhs(np.zeros(sys.dim), p)

        def drift(X, W):
            return X @ A_T + (W @ B_T + b)
    else:
        def drift(X, W):
            return model_obj.rhs(X, p + W)

    t, X, W = _euler_maruyama(drift, model_obj.at_rest(eq), _noise_matrix(net, scenario),
                              scenario, paths, record_stride)
    traces = _traces(model_obj, t, X, p + W)
    metrics = compute_metrics(traces, net.prices, burn_in=burn_in)
    return traces, metrics


def _noise_matrix(net, scenario):
    sig = np.zeros(net.n_nodes)
    for nid, s in scenario.sigma.items():
        sig[net.index_of[nid]] = s
    return sig


def _euler_maruyama(drift, x0, sig, scenario, paths, record_stride):
    """Step ``X + h * drift(X, W)`` from ``x0`` on every path, ``W`` being the
    white-noise load jitter ``sig * N(0, 1) / sqrt(h)`` per node.

    Returns the recording times and, with shapes (paths, T, .), the states
    and the jitter of the step that led to each recorded row (zero on the
    first).
    """
    h = scenario.h
    sqrt_h = math.sqrt(h)
    n_steps = int(round(scenario.t_end / h))
    rngs = [np.random.Generator(np.random.Philox(s))
            for s in np.random.SeedSequence(scenario.seed).spawn(paths)]
    rec_idx = np.arange(0, n_steps + 1, record_stride)
    X_rec = np.empty((len(rec_idx), paths, len(x0)))
    W_rec = np.zeros((len(rec_idx), paths, len(sig)))
    X = np.tile(x0, (paths, 1))
    X_rec[0] = X
    rec_pos = 1
    chunk = 2000
    for start in range(0, n_steps, chunk):
        this = min(chunk, n_steps - start)
        W = np.empty((this, paths, len(sig)))
        for p, rng in enumerate(rngs):
            # each path draws from its own stream, step by step in node order
            W[:, p] = rng.standard_normal((this, len(sig)))
        W *= sig
        W /= sqrt_h
        for k in range(this):
            X = X + h * drift(X, W[k])
            step = start + k + 1
            if rec_pos < len(rec_idx) and step == rec_idx[rec_pos]:
                # checked where recorded: no other state reaches the output
                if not np.abs(X).max() <= _BLOWUP_LIMIT:
                    raise NumericalBlowup("stochastic ensemble diverged "
                                          f"(by t = {step * h:g} s)")
                X_rec[rec_pos] = X
                W_rec[rec_pos] = W[k]
                rec_pos += 1
    return rec_idx * h, X_rec.transpose(1, 0, 2), W_rec.transpose(1, 0, 2)


def compute_metrics(traces, alpha, t0: float = 40.0,
                    burn_in: float | None = None) -> Metrics:
    """Transient metrics from recorded traces.

    A single trace gives the windowed quadratic costs: S integrates the
    squared frequency deviations and C half the price-weighted squared
    inputs over [0, t0], trapezoid rule on the trace grid. A list of traces
    gives the stationary expectations E_S and E_C by averaging over time
    (after ``burn_in``) and paths, with path-spread standard errors.
    """
    alpha = np.asarray(alpha, dtype=float)
    if isinstance(traces, Trace):
        tr = traces
        if tr.t[-1] < t0 - 1e-9:
            raise InsufficientHorizon(f"trace ends at {tr.t[-1]}, needs t0={t0}")
        mask = tr.t <= t0 + 1e-12
        om = tr.omega_controllers[mask]
        uu = tr.u[mask]
        t = tr.t[mask]
        s_val = float(np.trapezoid((om ** 2).sum(axis=1), t))
        c_val = 0.5 * float(np.trapezoid((uu ** 2 * alpha[None, :]).sum(axis=1), t))
        return Metrics(S=s_val, C=c_val, t0=t0)

    if burn_in is None:
        raise InsufficientHorizon("ensemble metrics need the burn-in time")
    per_path_s, per_path_c = [], []
    for tr in traces:
        mask = tr.t >= burn_in - 1e-12
        if not mask.any():
            raise InsufficientHorizon("burn-in leaves no samples to average")
        om = tr.omega_controllers[mask]
        uu = tr.u[mask]
        per_path_s.append(float(np.mean((om ** 2).sum(axis=1))))
        per_path_c.append(0.5 * float(np.mean((uu ** 2 * alpha[None, :]).sum(axis=1))))
    ps = np.array(per_path_s)
    pc = np.array(per_path_c)
    k = len(ps)
    return Metrics(E_S=float(ps.mean()), E_C=float(pc.mean()),
                   E_S_se=float(ps.std(ddof=1) / math.sqrt(k)) if k > 1 else None,
                   E_C_se=float(pc.std(ddof=1) / math.sqrt(k)) if k > 1 else None,
                   burn_in=burn_in)


# --- CSV export ----------------------------------------------------------------

_CSV_HEADER = "t,node,theta,omega,eta,xi,u,mc"


def _fmt(x) -> str:
    return "" if x is None or (isinstance(x, float) and math.isnan(x)) else f"{x:.12g}"


def _trace_rows(trace: Trace, prefix: str = ""):
    ctrl_pos = {nid: k for k, nid in enumerate(trace.controller_ids)}
    for k, t in enumerate(trace.t):
        for col, nid in enumerate(trace.node_ids):
            cp = ctrl_pos.get(nid)
            eta = xi = u = mc = None
            if cp is not None:
                eta, xi = float(trace.eta[k, cp]), float(trace.xi[k, cp])
                u, mc = float(trace.u[k, cp]), float(trace.mc[k, cp])
            yield (prefix + ",".join([
                _fmt(float(t)), str(nid), _fmt(float(trace.theta[k, col])),
                _fmt(float(trace.omega[k, col])), _fmt(eta), _fmt(xi),
                _fmt(u), _fmt(mc)]))


def write_trace_csv(fh, trace: Trace) -> None:
    fh.write(_CSV_HEADER + "\n")
    for row in _trace_rows(trace):
        fh.write(row + "\n")


def write_ensemble_csv(fh, traces) -> None:
    fh.write("path," + _CSV_HEADER + "\n")
    for p, trace in enumerate(traces):
        for row in _trace_rows(trace, prefix=f"{p},"):
            fh.write(row + "\n")
