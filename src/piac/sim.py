"""Time-domain simulation of the controlled network.

The full model keeps the sine coupling: machine nodes integrate the swing
dynamics, frequency-dependent nodes have their frequency pinned by the
local power balance, and passive-node phases are algebraic states solved by
damped Newton inside every right-hand-side evaluation (semi-explicit
index-1 treatment). A ``model="linear"`` flag swaps the sine for its
linearization to expose the small-angle agreement directly.

Deterministic runs integrate with an adaptive Runge-Kutta scheme; stochastic
runs use Euler-Maruyama with a fixed step. White-noise disturbances at any
node kind are injected as per-step load jitter ``sigma * N(0,1) / sqrt(h)``,
which for differential states reduces to the standard Euler-Maruyama
increment and for algebraic states is the frozen-over-the-step reading of
white noise in the power balance.
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
    """Index bookkeeping plus vectorized right-hand sides for one network."""

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
        self.ei = np.array([idx[i] for i, _, _ in net.edges], dtype=int)
        self.ej = np.array([idx[j] for _, j, _ in net.edges], dtype=int)
        self.w = np.array([k for _, _, k in net.edges])
        self.n_ctrl = self.law.pairs
        self.dim = self.n_mf + self.n_m + 2 * self.n_ctrl
        # edge -> passive-local index (-1 when the endpoint is not passive)
        pas_local = {node_i: k for k, node_i in enumerate(self.pas)}
        self.pi = np.array([pas_local.get(a, -1) for a in self.ei], dtype=int)
        self.pj = np.array([pas_local.get(a, -1) for a in self.ej], dtype=int)
        self._theta_p_warm = np.zeros(self.n_p)

    # -- couplings -----------------------------------------------------------

    def flows(self, theta: np.ndarray) -> np.ndarray:
        gap = theta[self.ei] - theta[self.ej]
        s = self.w * (np.sin(gap) if self.model == "sin" else gap)
        out = np.zeros(self.n)
        np.add.at(out, self.ei, s)
        np.add.at(out, self.ej, -s)
        return out

    def _passive_jacobian(self, theta: np.ndarray) -> np.ndarray:
        gap = theta[self.ei] - theta[self.ej]
        c = self.w * (np.cos(gap) if self.model == "sin" else np.ones_like(gap))
        H = np.zeros((self.n_p, self.n_p))
        pi, pj = self.pi, self.pj
        both = (pi >= 0) & (pj >= 0)
        one_i = (pi >= 0) & (pj < 0)
        one_j = (pj >= 0) & (pi < 0)
        np.add.at(H, (pi[both], pi[both]), c[both])
        np.add.at(H, (pj[both], pj[both]), c[both])
        np.add.at(H, (pi[both], pj[both]), -c[both])
        np.add.at(H, (pj[both], pi[both]), -c[both])
        np.add.at(H, (pi[one_i], pi[one_i]), c[one_i])
        np.add.at(H, (pj[one_j], pj[one_j]), c[one_j])
        return H

    def solve_passive(self, theta_mf: np.ndarray, p_pas: np.ndarray) -> np.ndarray:
        """Damped Newton on the passive power balance; warm-started."""
        if self.n_p == 0:
            return np.zeros(0)
        theta = np.zeros(self.n)
        theta[self.mf] = theta_mf
        theta_p = self._theta_p_warm.copy()
        for _ in range(50):
            theta[self.pas] = theta_p
            g = p_pas - self.flows(theta)[self.pas]
            gn = float(np.abs(g).max())
            if gn <= 1e-12 * max(1.0, float(np.abs(p_pas).max())):
                self._theta_p_warm = theta_p
                return theta_p
            H = self._passive_jacobian(theta)
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError as exc:
                raise DAESolveError(f"singular passive-network jacobian: {exc}") from None
            alpha = 1.0
            for _ in range(30):
                cand = theta_p + alpha * step
                theta[self.pas] = cand
                g_new = p_pas - self.flows(theta)[self.pas]
                if float(np.abs(g_new).max()) < gn:
                    theta_p = cand
                    break
                alpha *= 0.5
            else:
                raise DAESolveError("passive-network Newton stalled")
        raise DAESolveError("passive-network Newton did not converge in 50 iterations")

    # -- packed state ----------------------------------------------------------

    def pack(self, theta_mf, omega_m, eta, xi) -> np.ndarray:
        return np.concatenate([theta_mf, omega_m, eta, xi])

    def at_rest(self, eq: Equilibrium) -> np.ndarray:
        """Packed state at an equilibrium: its phases and pairs, zero frequency."""
        return self.pack(eq.theta[self.mf], np.zeros(self.n_m), eq.eta, eq.xi)

    def unpack(self, x):
        """Blocks of packed states; ``x`` may carry leading axes."""
        a = self.n_mf
        b = a + self.n_m
        c = b + self.n_ctrl
        return x[..., :a], x[..., a:b], x[..., b:c], x[..., c:]

    def _network(self, theta_mf, omega_m, u, p_eff):
        """Full theta, omega over the controller set and the line flows:
        passive phases and load-bus frequencies from the power balance."""
        theta = np.zeros(self.n)
        theta[self.mf] = theta_mf
        if self.n_p:
            theta[self.pas] = self.solve_passive(theta_mf, p_eff[self.pas])
        f = self.flows(theta)
        omega_mf = np.empty(self.n_mf)
        omega_mf[self.mach_in_mf] = omega_m
        if self.freq_nodes.size:
            omega_mf[self.freq_in_mf] = ((p_eff[self.freq_nodes] + u[self.freq_in_mf]
                                          - f[self.freq_nodes]) / self.D_f)
        return theta, omega_mf, f

    def rhs(self, x: np.ndarray, p_eff: np.ndarray) -> np.ndarray:
        theta_mf, omega_m, eta, xi = self.unpack(x)
        u = self.law.u(xi)
        _, omega_mf, f = self._network(theta_mf, omega_m, u, p_eff)
        d_omega_m = (p_eff[self.mach_nodes] + u[self.mach_in_mf]
                     - self.D_m * omega_m - f[self.mach_nodes]) / self.M_m
        return self.pack(omega_mf, d_omega_m, self.law.d_eta(omega_mf, xi),
                         self.law.d_xi(omega_mf, eta, xi))

    def observables(self, x, p_eff):
        """Full theta and full omega (NaN on passive nodes)."""
        theta_mf, omega_m, _, xi = self.unpack(x)
        theta, omega_mf, _ = self._network(theta_mf, omega_m, self.law.u(xi), p_eff)
        omega = np.full(self.n, np.nan)
        omega[self.mf] = omega_mf
        return theta, omega


def find_equilibrium(net: PowerNetwork, law: str, gains: GainSchedule,
                     comm: CommunicationGraph | None = None,
                     model: str = "sin") -> Equilibrium:
    """Steady state with the secondary loop holding the synchronized
    frequency at zero: optimal inputs, matching controller offsets, and the
    zero-mean phase profile solving the (sine or linearized) power flow."""
    model_obj = _SimModel(net, comm, law, gains, model)
    u_eq = optimal_dispatch(net)
    p = net.injections
    n = net.n_nodes
    inj = p.copy()
    inj[model_obj.mf] += u_eq
    # reduced Newton on the zero-mean complement of the phase space
    basis = _phase_complement(n)
    z = np.zeros(n - 1)
    for _ in range(50):
        theta = basis @ z
        resid = inj - model_obj.flows(theta)
        g = basis.T @ resid
        gn = float(np.abs(g).max()) if g.size else 0.0
        if gn <= 1e-12 * max(1.0, float(np.abs(inj).max())):
            break
        gap = theta[model_obj.ei] - theta[model_obj.ej]
        c = model_obj.w * (np.cos(gap) if model == "sin" else np.ones_like(gap))
        Hc = np.zeros((n, n))
        np.add.at(Hc, (model_obj.ei, model_obj.ei), c)
        np.add.at(Hc, (model_obj.ej, model_obj.ej), c)
        np.add.at(Hc, (model_obj.ei, model_obj.ej), -c)
        np.add.at(Hc, (model_obj.ej, model_obj.ei), -c)
        J = basis.T @ Hc @ basis
        try:
            step = np.linalg.solve(J, g)
        except np.linalg.LinAlgError as exc:
            raise DAESolveError(f"singular power-flow jacobian: {exc}") from None
        alpha = 1.0
        for _ in range(30):
            cand = z + alpha * step
            r_new = inj - model_obj.flows(basis @ cand)
            if float(np.abs(basis.T @ r_new).max()) < gn:
                z = cand
                break
            alpha *= 0.5
        else:
            raise DAESolveError("power-flow Newton stalled")
    else:
        raise DAESolveError("power-flow Newton did not converge in 50 iterations")
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

    Integration restarts at the onset so the load step never straddles an
    adaptive step. Output lands on the uniform grid ``scenario.h * stride``.
    """
    if scenario.kind is not ScenarioKind.STEP:
        raise DomainError("simulate_deterministic needs a step scenario")
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
                        x_start, method="RK45", rtol=rtol, atol=atol,
                        t_eval=t_eval)
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

    ``P`` is only read on networks with algebraic node states (passive
    phases, load-bus frequencies), which are rebuilt row by row; everything
    else is sliced or mapped at once.
    """
    net, law = model_obj.net, model_obj.law
    theta_mf, omega_m, eta, xi = model_obj.unpack(X)
    theta = np.zeros(X.shape[:-1] + (model_obj.n,))
    omega = np.full_like(theta, np.nan)
    theta[..., model_obj.mf] = theta_mf
    omega[..., model_obj.mach_nodes] = omega_m
    if model_obj.n_p or model_obj.freq_nodes.size:
        for row in np.ndindex(X.shape[:-1]):
            theta[row], omega[row] = model_obj.observables(X[row], P[row])
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

    Per-path noise streams are spawned deterministically from the scenario
    seed, so results do not depend on evaluation order. Machine-only
    networks with ``model="linear"`` run on the assembled closed-loop matrix,
    vectorized across paths; everything else steps the nonlinear model path
    by path.
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
    seeds = np.random.SeedSequence(scenario.seed).spawn(paths)

    linear_fast = (model == "linear" and not net.freq_ids and not net.passive_ids)
    if linear_fast:
        traces = _stochastic_linear(net, comm, law, gains, scenario, paths,
                                    seeds, record_stride)
    else:
        eq = find_equilibrium(net, law, gains, comm, model)

        def run_path(seed):
            # fresh model per path: the passive-solve warm start is mutable
            mo = _SimModel(net, comm, law, gains, model)
            return _stochastic_nonlinear_path(mo, mo.at_rest(eq), scenario, seed,
                                              record_stride)

        traces = [run_path(seed) for seed in seeds]
    metrics = compute_metrics(traces, net.prices, burn_in=burn_in)
    return traces, metrics


def _noise_matrix(net, scenario):
    sig = np.zeros(net.n_nodes)
    for nid, s in scenario.sigma.items():
        sig[net.index_of[nid]] = s
    return sig


def _stochastic_linear(net, comm, law, gains, scenario, paths, seeds, record_stride):
    # on a machine-only network the packed state is the closed-loop state
    sys = assemble(net, comm, law, gains)
    model_obj = _SimModel(net, comm, law, gains, "linear")
    eq = find_equilibrium(net, law, gains, comm, "linear")
    n = net.n_nodes
    N = sys.dim
    x0 = model_obj.at_rest(eq)
    b = model_obj.rhs(np.zeros(N), net.injections)
    sig = _noise_matrix(net, scenario)
    h = scenario.h
    n_steps = int(round(scenario.t_end / h))
    sqrt_h = math.sqrt(h)
    A, B = sys.A, sys.B

    rngs = [np.random.Generator(np.random.Philox(s)) for s in seeds]
    X = np.tile(x0[:, None], (1, paths))
    rec_idx = np.arange(0, n_steps + 1, record_stride)
    t_rec = rec_idx * h
    recorded = np.empty((len(rec_idx), N, paths))
    recorded[0] = X
    rec_pos = 1
    chunk = 2000
    step = 0
    while step < n_steps:
        this = min(chunk, n_steps - step)
        noise = np.empty((this, n, paths))
        for p, rng in enumerate(rngs):
            noise[:, :, p] = rng.standard_normal((this, n))
        noise *= sig[None, :, None]
        for k in range(this):
            X = X + h * (A @ X + b[:, None]) + sqrt_h * (B @ noise[k])
            step += 1
            if rec_pos < len(rec_idx) and step == rec_idx[rec_pos]:
                recorded[rec_pos] = X
                rec_pos += 1
        if not np.all(np.isfinite(X)) or np.abs(X).max() > _BLOWUP_LIMIT:
            raise NumericalBlowup("stochastic ensemble diverged "
                                  f"(around t = {step * h:g} s)")
    return _traces(model_obj, t_rec, recorded.transpose(2, 0, 1), None)


def _stochastic_nonlinear_path(model_obj, x0, scenario, seed, record_stride):
    net = model_obj.net
    rng = np.random.Generator(np.random.Philox(seed))
    h = scenario.h
    sqrt_h = math.sqrt(h)
    sig = _noise_matrix(net, scenario)
    n_steps = int(round(scenario.t_end / h))
    p_base = net.injections
    x = x0.copy()
    rec_idx = np.arange(0, n_steps + 1, record_stride)
    t_rec = rec_idx * h
    rec_states = np.empty((len(rec_idx), len(x)))
    rec_p = np.empty((len(rec_idx), net.n_nodes))
    rec_states[0] = x
    rec_p[0] = p_base
    rec_pos = 1
    for step in range(1, n_steps + 1):
        # one draw per node per step, matching the vectorized path's stream
        p_eff = p_base + sig * rng.standard_normal(net.n_nodes) / sqrt_h
        x = x + h * model_obj.rhs(x, p_eff)
        if not np.all(np.isfinite(x)) or np.abs(x).max() > _BLOWUP_LIMIT:
            raise NumericalBlowup(f"stochastic path diverged at step {step}")
        if rec_pos < len(rec_idx) and step == rec_idx[rec_pos]:
            rec_states[rec_pos] = x
            rec_p[rec_pos] = p_eff
            rec_pos += 1
    return _traces(model_obj, t_rec, rec_states[None], rec_p[None])[0]


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
