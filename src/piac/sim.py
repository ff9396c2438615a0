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

from .closedloop import (assemble_decpiac, assemble_dpiac, assemble_gbpiac)
from .controllers import GainSchedule, optimal_dispatch
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
        if law not in ("gbpiac", "dpiac", "decpiac"):
            raise DomainError(f"unknown law {law!r}")
        if model not in ("sin", "linear"):
            raise DomainError(f"unknown model {model!r} (sin|linear)")
        if law == "dpiac" and comm is None:
            raise DomainError("distributed law needs a communication graph")
        self.net = net
        self.law = law
        self.gains = gains
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
        self.M_m = net.inertias            # machines, node order
        self.D_mf = net.dampings           # controller set == MF set
        self.alpha = net.prices
        self.alpha_s = net.alpha_s
        self.M_k = np.zeros(self.n_mf)
        self.M_k[self.mach_in_mf] = self.M_m
        self.ei = np.array([idx[i] for i, _, _ in net.edges], dtype=int)
        self.ej = np.array([idx[j] for _, j, _ in net.edges], dtype=int)
        self.w = np.array([k for _, _, k in net.edges])
        self.L_comm = (comm.laplacian(net.controller_ids)
                       if (law == "dpiac" and comm is not None) else None)
        self.n_ctrl = 1 if law == "gbpiac" else self.n_mf
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

    # -- control law ----------------------------------------------------------

    def control_input(self, xi: np.ndarray) -> np.ndarray:
        if self.law == "gbpiac":
            return (self.alpha_s / self.alpha) * self.gains.k2 * xi[0]
        return self.gains.k2 * xi

    def controller_derivative(self, omega_mf, eta, xi):
        g = self.gains
        if self.law == "gbpiac":
            d_eta = np.array([self.D_mf @ omega_mf])
            d_xi = np.array([-g.k1 * (self.M_m @ omega_mf[self.mach_in_mf] + eta[0])
                             - g.k2 * xi[0]])
            return d_eta, d_xi
        d_eta = self.D_mf * omega_mf
        if self.law == "dpiac" and g.k3 != 0.0:
            d_eta = d_eta + g.k3 * (self.L_comm @ (g.k2 * self.alpha * xi))
        d_xi = -g.k1 * (self.M_k * omega_mf + eta) - g.k2 * xi
        return d_eta, d_xi

    # -- packed state ----------------------------------------------------------

    def pack(self, theta_mf, omega_m, eta, xi) -> np.ndarray:
        return np.concatenate([theta_mf, omega_m, eta, xi])

    def unpack(self, x):
        a = self.n_mf
        b = a + self.n_m
        c = b + self.n_ctrl
        return x[:a], x[a:b], x[b:c], x[c:]

    def rhs(self, x: np.ndarray, p_eff: np.ndarray) -> np.ndarray:
        theta_mf, omega_m, eta, xi = self.unpack(x)
        u = self.control_input(xi)
        theta = np.zeros(self.n)
        theta[self.mf] = theta_mf
        if self.n_p:
            theta[self.pas] = self.solve_passive(theta_mf, p_eff[self.pas])
        f = self.flows(theta)
        omega_mf = np.empty(self.n_mf)
        omega_mf[self.mach_in_mf] = omega_m
        freq_mask = np.ones(self.n_mf, dtype=bool)
        freq_mask[self.mach_in_mf] = False
        if freq_mask.any():
            mf_nodes = self.mf[freq_mask]
            omega_mf[freq_mask] = ((p_eff[mf_nodes] + u[freq_mask] - f[mf_nodes])
                                   / self.D_mf[freq_mask])
        mach_nodes = self.mf[self.mach_in_mf]
        d_omega_m = (p_eff[mach_nodes] + u[self.mach_in_mf]
                     - self.D_mf[self.mach_in_mf] * omega_m
                     - f[mach_nodes]) / self.M_m
        d_eta, d_xi = self.controller_derivative(omega_mf, eta, xi)
        return self.pack(omega_mf, d_omega_m, d_eta, d_xi)

    def observables(self, x, p_eff):
        """Full theta, full omega (NaN on passive), u and marginal costs."""
        theta_mf, omega_m, eta, xi = self.unpack(x)
        u = self.control_input(xi)
        theta = np.zeros(self.n)
        theta[self.mf] = theta_mf
        if self.n_p:
            theta[self.pas] = self.solve_passive(theta_mf, p_eff[self.pas])
        f = self.flows(theta)
        omega = np.full(self.n, np.nan)
        omega[self.mf[self.mach_in_mf]] = omega_m
        freq_mask = np.ones(self.n_mf, dtype=bool)
        freq_mask[self.mach_in_mf] = False
        if freq_mask.any():
            mf_nodes = self.mf[freq_mask]
            omega[mf_nodes] = ((p_eff[mf_nodes] + u[freq_mask] - f[mf_nodes])
                               / self.D_mf[freq_mask])
        mc = self.gains.k2 * self.alpha * xi if self.law != "gbpiac" \
            else self.gains.k2 * self.alpha_s * np.ones(self.n_mf) * xi[0]
        return theta, omega, u, mc


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
    v = np.full(n, 1.0 / math.sqrt(n))
    w = v - np.eye(n)[:, 0]
    H = np.eye(n) - 2 * np.outer(w, w) / (w @ w) if n > 1 else np.eye(n)
    basis = H[:, 1:]
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
    theta = basis @ z
    k1, k2 = gains.k1, gains.k2
    if law == "gbpiac":
        xi = np.array([float(np.sum(u_eq)) / k2])
    else:
        xi = u_eq / k2
    eta = -(k2 / k1) * xi
    return Equilibrium(theta=theta, eta=eta, xi=xi, u=u_eq)


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
    x0 = model_obj.pack(eq.theta[model_obj.mf],
                        np.zeros(model_obj.n_m), eq.eta, eq.xi)
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
    return _build_trace(model_obj, net, t, X, scenario, law)


def _build_trace(model_obj, net, t, X, scenario, law):
    T = len(t)
    n = net.n_nodes
    nk = model_obj.n_mf
    theta = np.zeros((T, n))
    omega = np.zeros((T, n))
    u = np.zeros((T, nk))
    mc = np.zeros((T, nk))
    eta_rec = np.zeros((T, nk))
    xi_rec = np.zeros((T, nk))
    onset = 0.0 if scenario.onset is None else scenario.onset
    for k in range(T):
        stepped = (scenario.kind is ScenarioKind.STEP) and t[k] >= onset - 1e-12
        p_eff = _effective_injection(net, scenario, stepped)
        th, om, uu, mm = model_obj.observables(X[k], p_eff)
        theta[k] = th
        omega[k] = om
        u[k] = uu
        mc[k] = mm
        _, _, eta, xi = model_obj.unpack(X[k])
        if law == "gbpiac":
            eta_rec[k] = eta[0]
            xi_rec[k] = xi[0]
        else:
            eta_rec[k] = eta
            xi_rec[k] = xi
    return Trace(t=t, node_ids=net.ids, theta=theta, omega=omega,
                 controller_ids=net.controller_ids, eta=eta_rec, xi=xi_rec,
                 u=u, mc=mc, law=law)


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
            x0 = mo.pack(eq.theta[mo.mf], np.zeros(mo.n_m), eq.eta, eq.xi)
            return _stochastic_nonlinear_path(mo, net, x0, scenario, seed,
                                              record_stride, law)

        traces = [run_path(seed) for seed in seeds]
    metrics = compute_metrics(traces, net.prices, burn_in=burn_in)
    return traces, metrics


def _noise_matrix(net, scenario):
    sig = np.zeros(net.n_nodes)
    for nid, s in scenario.sigma.items():
        sig[net.index_of[nid]] = s
    return sig


def _stochastic_linear(net, comm, law, gains, scenario, paths, seeds, record_stride):
    if law == "gbpiac":
        sys = assemble_gbpiac(net, gains)
    elif law == "dpiac":
        sys = assemble_dpiac(net, comm, gains)
    else:
        sys = assemble_decpiac(net, gains, comm=comm)
    model_obj = _SimModel(net, comm, law, gains, "linear")
    eq = find_equilibrium(net, law, gains, comm, "linear")
    n = net.n_nodes
    N = sys.dim
    x0 = np.zeros(N)
    x0[sys.labels["theta"]] = eq.theta
    x0[sys.labels["eta"]] = eq.eta
    x0[sys.labels["xi"]] = eq.xi
    b = np.zeros(N)
    b[sys.labels["omega"]] = net.injections / net.inertias
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

    traces = []
    th_sl, om_sl = sys.labels["theta"], sys.labels["omega"]
    xi_sl, eta_sl = sys.labels["xi"], sys.labels["eta"]
    for p in range(paths):
        Xp = recorded[:, :, p]
        xi = Xp[:, xi_sl]
        eta = Xp[:, eta_sl]
        if law == "gbpiac":
            u = (model_obj.alpha_s / model_obj.alpha)[None, :] * gains.k2 * xi
            mc = gains.k2 * model_obj.alpha_s * np.tile(xi, (1, n))
            eta = np.tile(eta, (1, n))
            xi_cols = np.tile(xi, (1, n))
        else:
            u = gains.k2 * xi
            mc = gains.k2 * model_obj.alpha[None, :] * xi
            xi_cols = xi
        traces.append(Trace(t=t_rec, node_ids=net.ids, theta=Xp[:, th_sl],
                            omega=Xp[:, om_sl], controller_ids=net.controller_ids,
                            eta=eta, xi=xi_cols, u=u, mc=mc, law=law))
    return traces


def _stochastic_nonlinear_path(model_obj, net, x0, scenario, seed, record_stride, law):
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
    T = len(rec_idx)
    n = net.n_nodes
    nk = model_obj.n_mf
    theta = np.zeros((T, n))
    omega = np.zeros((T, n))
    u = np.zeros((T, nk))
    mc = np.zeros((T, nk))
    eta_rec = np.zeros((T, nk))
    xi_rec = np.zeros((T, nk))
    for k in range(T):
        th, om, uu, mm = model_obj.observables(rec_states[k], rec_p[k])
        theta[k], omega[k], u[k], mc[k] = th, om, uu, mm
        _, _, eta, xi = model_obj.unpack(rec_states[k])
        eta_rec[k] = eta[0] if law == "gbpiac" else eta
        xi_rec[k] = xi[0] if law == "gbpiac" else xi
    return Trace(t=t_rec, node_ids=net.ids, theta=theta, omega=omega,
                 controller_ids=net.controller_ids, eta=eta_rec, xi=xi_rec,
                 u=u, mc=mc, law=law)


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
