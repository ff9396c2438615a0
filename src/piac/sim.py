"""Time-domain simulation of the controlled network.

The full model keeps the sine coupling: machine nodes integrate the swing
dynamics, frequency-dependent nodes have their frequency pinned by the
local power balance, and passive-node phases are algebraic states solved by
damped Newton inside every right-hand-side evaluation (semi-explicit
index-1 treatment). A ``model="linear"`` flag swaps the sine for its
linearization to expose the small-angle agreement directly.

The network model is the one in :mod:`piac.closedloop`, which also reads
the closed-loop matrices off it; this module integrates it, rebuilds traces
and exports them. The model, coupled through the grid's signed incidence
matrix, takes states with leading (path, row) axes, and one damped Newton,
element by element, solves both the equilibrium power flow and the passive
balance. Deterministic runs integrate with LSODA, which switches between
Adams and BDF methods as the problem's stiffness demands (Petzold, SIAM J.
Sci. Stat. Comput. 4(1), 1983): low-damping load buses put closed-loop
eigenvalues far into the left half-plane (down to about -235 on
``ieee39-like``), where an explicit scheme is held to tiny steps by
stability, not accuracy. Its Jacobian is a forward difference over all unit
perturbations, taken in one batched right-hand-side call. Stochastic runs
step the whole ensemble as one (paths, dim) state with Euler-Maruyama at a
fixed step. White-noise disturbances at any node kind are injected as
per-step load jitter ``sigma * N(0,1) / sqrt(h)``, which for differential
states reduces to the standard Euler-Maruyama increment and for algebraic
states is the frozen-over-the-step reading of white noise in the power
balance. Traces rebuild the algebraic states of the recorded rows in
batched solves.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .closedloop import _damped_newton, _SimModel, _weighted_gram
# kept importable here: the benchmark's tracer test checks that a wrapped
# function is also patched where another module imported it
from .closedloop import assemble_dpiac  # noqa: F401
from .controllers import GainSchedule, optimal_dispatch
from .errors import DomainError, InsufficientHorizon, NumericalBlowup
from .netmodel import CommunicationGraph, PowerNetwork
from .scenario import DEFAULTS, Scenario, ScenarioKind

__all__ = [
    "Scenario", "ScenarioKind", "Trace", "Metrics", "Equilibrium",
    "find_equilibrium", "simulate_deterministic", "simulate_stochastic",
    "compute_metrics", "write_trace_csv", "write_ensemble_csv",
]

log = logging.getLogger(__name__)

_BLOWUP_LIMIT = 1e6
# LSODA tolerances of the step studies
_RTOL = 1e-8
_ATOL = 1e-10
# recorded rows per path rebuilt in one batched solve, and time steps per
# block of CSV text. Blocks of 256 rows made the trace rebuild of the sim
# benchmark 4x slower on a shared 2-CPU host, where their matrix products go
# multithreaded in BLAS.
_TRACE_BLOCK = 64
# bytes of load jitter drawn at a time by the Euler-Maruyama stepper, in
# chunks of whole steps (at least one). The draws do not depend on the
# chunking, so neither do the outputs; the budget bounds the stepper's
# largest temporary whatever the number of paths.
_NOISE_CHUNK_BYTES = 1 << 22


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


def find_equilibrium(net: PowerNetwork, law: str, gains: GainSchedule,
                     comm: CommunicationGraph | None = None,
                     model: str = "sin") -> Equilibrium:
    """Steady state with the secondary loop holding the synchronized
    frequency at zero: optimal inputs, matching controller offsets, and the
    zero-mean phase profile solving the (sine or linearized) power flow."""
    return _equilibrium(_SimModel(net, comm, law, gains, model))


def _phase_complement(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the uniform vector in R^n.

    Columns 2..n of the Householder reflector mapping e_1 to 1/sqrt(n);
    deterministic, so the power flow solved on it is reproducible.
    """
    v = np.full(n, 1.0 / math.sqrt(n))
    w = v - np.eye(n)[:, 0]
    H = np.eye(n)
    wn = w @ w
    if wn > 0:
        H -= 2.0 * np.outer(w, w) / wn
    return H[:, 1:]


def _equilibrium(model_obj: _SimModel) -> Equilibrium:
    """:func:`find_equilibrium` of the network ``model_obj`` was built on."""
    net = model_obj.net
    u_eq = optimal_dispatch(net)
    inj = net.injections.copy()
    inj[model_obj.mf] += u_eq
    # reduced Newton on the zero-mean complement of the phase space
    basis = _phase_complement(net.n_nodes)
    F = model_obj.E @ basis
    jacobian = _weighted_gram(F)
    target = inj @ basis

    def mismatch(z):
        gap = z @ F.T
        return target - model_obj.line_flows(gap) @ F, gap

    z, _ = _damped_newton(mismatch, lambda gap: jacobian(model_obj.stiffness(gap)),
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
                           model: str = "sin", stride: int = 1) -> Trace:
    """Step-load response from the pre-disturbance equilibrium.

    LSODA integrates at rtol 1e-8, atol 1e-10 with the forward-difference
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
    x0 = model_obj.at_rest(_equilibrium(model_obj))
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
                        x_start, method="LSODA", rtol=_RTOL, atol=_ATOL,
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
    does not depend on how many others run beside it. With
    ``model="linear"`` the drift is affine and is read as the model's
    matrices on every network, so no step solves the passive balance; the
    sine model evaluates its right-hand side.
    """
    if scenario.kind is not ScenarioKind.NOISE:
        raise DomainError("simulate_stochastic needs a noise scenario")
    if scenario.seed is None:
        raise DomainError("stochastic runs need a seed for reproducibility")
    _check_scenario_nodes(net, scenario)
    _note_gain_ratio(gains)
    defaults = DEFAULTS[ScenarioKind.NOISE]
    paths = scenario.paths if scenario.paths is not None else defaults["paths"]
    burn_in = scenario.burn_in if scenario.burn_in is not None else defaults["burn_in"]
    if record_stride is None:
        record_stride = max(1, int(round(0.1 / scenario.h)))

    model_obj = _SimModel(net, comm, law, gains, model)
    x0 = model_obj.at_rest(_equilibrium(model_obj))
    p = net.injections
    if model == "linear":
        A, B = model_obj.matrices(np.eye(net.n_nodes))
        A_T, B_T = A.T, B.T
        b = model_obj.rhs(np.zeros(model_obj.dim), p)

        def drift(X, W):
            return X @ A_T + (W @ B_T + b)
    else:
        def drift(X, W):
            return model_obj.rhs(X, p + W)

    t, X, W = _euler_maruyama(drift, x0, _noise_matrix(net, scenario),
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
    chunk = max(1, _NOISE_CHUNK_BYTES // (8 * paths * len(sig)))
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


def _write_rows(fh, trace: Trace, prefix: str = "") -> None:
    """Write the rows of ``trace``, each starting with ``prefix``, in blocks
    of ``_TRACE_BLOCK`` time steps.

    One ``%``-template covers a time step: node ids, the prefix and the
    empty controller fields of nodes without a controller are literal text,
    every number is ``%.12g``, and ``t``, formatted once per time step,
    takes the place of each ``"\\0"``. A NaN in any column is written as an
    empty field: ``%`` prints NaN of either sign as ``nan``, a word no other
    field can contain.
    """
    n, c = len(trace.node_ids), len(trace.controller_ids)
    ctrl = {nid: k for k, nid in enumerate(trace.controller_ids)}
    # positions of a step's values in the template, in the stacked columns
    # theta | omega | eta | xi | u | mc
    order, rows = [], []
    for col, nid in enumerate(trace.node_ids):
        order += [col, n + col]
        k = ctrl.get(nid)
        if k is None:
            rows.append(f"{prefix}\0,{nid},%.12g,%.12g,,,,\n")
        else:
            order += [2 * n + j * c + k for j in range(4)]
            rows.append(f"{prefix}\0,{nid}" + ",%.12g" * 6 + "\n")
    step = "".join(rows)
    columns = (trace.theta, trace.omega, trace.eta, trace.xi, trace.u, trace.mc)
    times = ["%.12g" % t for t in trace.t.tolist()]
    for a in range(0, len(times), _TRACE_BLOCK):
        block = slice(a, a + _TRACE_BLOCK)
        template = "".join([step.replace("\0", t) for t in times[block]])
        values = np.column_stack([col[block] for col in columns])[:, order]
        text = template % tuple(values.ravel().tolist())
        fh.write(text.replace("nan", ""))


def write_trace_csv(fh, trace: Trace) -> None:
    fh.write(_CSV_HEADER + "\n")
    _write_rows(fh, trace)


def write_ensemble_csv(fh, traces) -> None:
    fh.write("path," + _CSV_HEADER + "\n")
    for p, trace in enumerate(traces):
        _write_rows(fh, trace, prefix=f"{p},")
