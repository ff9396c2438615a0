"""Time-domain simulation of the controlled network.

The full model keeps the sine coupling: machine nodes integrate the swing
dynamics, frequency-dependent nodes have their frequency pinned by the
local power balance, and passive-node phases are algebraic states solved by
damped Newton inside every right-hand-side evaluation (semi-explicit
index-1 treatment). A ``model="linear"`` flag swaps the sine for its
linearization to expose the small-angle agreement directly.

The network model is the one in :mod:`piac.closedloop`, which also reads
the closed-loop matrices off it; this module integrates it, rebuilds traces
and exports them. The model takes states with leading (path, row) axes,
and one damped Newton, element by element, solves both its equilibrium
power flow, which :func:`find_equilibrium` reads, and the passive balance.
Both simulators start alike, from one model at rest at that equilibrium.
Deterministic runs integrate with LSODA, which switches between Adams and
BDF methods as the problem's stiffness demands (Petzold, SIAM J. Sci.
Stat. Comput. 4(1), 1983): low-damping load buses put closed-loop
eigenvalues far into the left half-plane (down to about -235 on
``ieee39-like``), where an explicit scheme is held to tiny steps by
stability, not accuracy. Its Jacobian is the model's exact derivative,
:meth:`_SimModel.linearize`: one passive solve, and one linear solve for
the passive phases' sensitivity. Stochastic runs step the whole ensemble
as one (paths, dim) state with Euler-Maruyama at a fixed step. White-noise
disturbances at any node kind are injected as per-step load jitter
``sigma * N(0,1) / sqrt(h)``, which for differential states reduces to the
standard Euler-Maruyama increment and for algebraic states is the
frozen-over-the-step reading of white noise in the power balance; noise
that reaches a frequency that way is refused. Both simulators record at
:meth:`Scenario.record_times`, the times ``k * h`` of the steps
:meth:`Scenario.record_steps` names, the last at ``n * h``, the whole
number of steps nearest ``t_end``. A step study starts at rest, so it
integrates once, from the onset to ``n * h``, and writes the rest state on
the rows up to the onset. Traces rebuild the algebraic states of the
recorded rows in batched solves.

SciPy's ODE stack (``scipy.integrate`` and the optimize, sparse, spatial,
special and fft packages it loads) is imported on the first call of
:func:`solve_ivp`, not with this module: only step studies integrate with
it, and loading it would cost every other command a third of its start-up.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .closedloop import (MODELS, StateSpace, _refuse_feedthrough, _SimModel,
                         deflate_zero_mode)
# kept importable here: the benchmark's tracer test checks that a wrapped
# function is also patched where another module imported it
from .closedloop import assemble_dpiac  # noqa: F401
from .controllers import GainSchedule
from .errors import DomainError, InsufficientHorizon, NumericalBlowup, ShapeError
from .netmodel import CommunicationGraph, PowerNetwork
from .scenario import Scenario, ScenarioKind

__all__ = [
    "Scenario", "ScenarioKind", "Trace", "Metrics", "Equilibrium",
    "find_equilibrium", "simulate_deterministic", "simulate_stochastic",
    "compute_metrics", "write_trace_csv", "write_ensemble_csv", "METRICS_T0",
    "METRICS_T0_SLACK",
]

log = logging.getLogger(__name__)

_BLOWUP_LIMIT = 1e6
# end in s of the window [0, t0] of a step study's metrics S and C, and how
# far past a trace's last row t0 may lie; such a window ends at that row
METRICS_T0 = 40.0
METRICS_T0_SLACK = 1e-9
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


def solve_ivp(fun, t_span, y0, **options):
    """:func:`scipy.integrate.solve_ivp`, imported on the first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(fun, t_span, y0, **options)


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
                     model: str = MODELS[0]) -> Equilibrium:
    """Steady state with the secondary loop holding the synchronized
    frequency at zero: optimal inputs, matching controller offsets, and the
    zero-mean phases solving the power flow (:meth:`_SimModel.equilibrium`)."""
    theta, eta, xi, u = _SimModel(net, comm, law, gains, model).equilibrium()
    return Equilibrium(theta=theta, eta=eta, xi=xi, u=u)


def _start(net, comm, law, gains, model):
    """The model both simulators step, and its rest state at :func:`find_equilibrium`."""
    # any k2 >= 4 k1 integrates fine; only the closed-form cross-checks
    # insist on equality
    if not gains.analytic_mode:
        log.info("simulating with k2 = %g != 4*k1 = %g; closed-form "
                 "comparisons are unavailable at this schedule",
                 gains.k2, 4.0 * gains.k1)
    model_obj = _SimModel(net, comm, law, gains, model)
    return model_obj, model_obj.at_rest(find_equilibrium(net, law, gains, comm, model))


def _node_vector(net, values: dict[int, float]) -> np.ndarray:
    """``{node: value}`` as a vector over the nodes of ``net``, zero where
    unnamed; a node ``net`` does not have raises :class:`DomainError`."""
    bad = [nid for nid in values if nid not in net.index_of]
    if bad:
        raise DomainError(f"scenario references unknown node(s) {bad}")
    v = np.zeros(net.n_nodes)
    for nid, value in values.items():
        v[net.index_of[nid]] = value
    return v


def simulate_deterministic(net: PowerNetwork, comm: CommunicationGraph | None,
                           law: str, gains: GainSchedule, scenario: Scenario,
                           model: str = MODELS[0]) -> Trace:
    """Step-load response from the pre-disturbance equilibrium.

    LSODA integrates at rtol 1e-8, atol 1e-10 with the exact Jacobian
    :meth:`_SimModel.linearize`, one method for every network: its own
    stiffness detection takes Adams steps where the dynamics are not stiff.
    ``h`` sets only the output grid: rows land at
    :meth:`Scenario.record_times`, every step ``k * h`` up to the last,
    ``n * h``, so a coarser grid is a larger ``h``. Before the onset the
    network rests at its equilibrium, so one solve runs over (onset, n * h]
    and records the rows after the onset; the rows at and before it hold
    the rest state. Rows at or after the onset see the stepped injections.
    """
    if scenario.kind is not ScenarioKind.STEP:
        raise DomainError("simulate_deterministic needs a step scenario")
    t = scenario.record_times()
    onset = scenario.onset
    p_pre = net.injections
    p_post = p_pre + _node_vector(net, scenario.steps)
    model_obj, x_start = _start(net, comm, law, gains, model)
    # Scenario keeps the onset far enough below t[-1] for LSODA to step
    k = int(np.searchsorted(t, onset, side="right"))
    sol = solve_ivp(lambda _, x: model_obj.rhs(x, p_post), (onset, t[-1]), x_start,
                    method="LSODA", rtol=_RTOL, atol=_ATOL, t_eval=t[k:],
                    jac=lambda _, x: model_obj.linearize(x, p_post)[0])
    if not sol.success:
        raise NumericalBlowup(f"integration failed: {sol.message}")
    blowup = _first_blowup(sol.y.T)
    if blowup:
        row, size = blowup
        what = ("non-finite state" if not math.isfinite(size) else
                f"state beyond the blow-up limit {_BLOWUP_LIMIT:g}")
        raise NumericalBlowup(f"{what} at t = {sol.t[row]:g} s "
                              f"(max |x| = {size:g})")
    # stacked after the solve: an output array allocated up front would add
    # its size to the solve's peak memory
    X = np.concatenate([np.tile(x_start, (k, 1)), sol.y.T])
    P = np.where((t >= onset)[:, None], p_post, p_pre)
    return _traces(model_obj, t, X[None], P[None])[0]


def _first_blowup(X):
    """The first row of ``X`` that is non-finite or beyond ``_BLOWUP_LIMIT``,
    as (index, max |x| of the row), or None if there is none."""
    size = np.abs(X).max(axis=1)
    bad = np.flatnonzero(~(size <= _BLOWUP_LIMIT))
    return (int(bad[0]), float(size[bad[0]])) if bad.size else None


def _traces(model_obj, t, X, P) -> list[Trace]:
    """One trace per path from packed states ``X`` of shape (paths, T, dim)
    recorded under the injections ``P`` (paths, T, n_nodes).

    The algebraic node states are rebuilt for all paths at once, in blocks
    of ``_TRACE_BLOCK`` rows: one batched solve per block, warm-started from
    the block before, row by row, with its solution and inverse Jacobian
    (chord steps while each halves the mismatch, then Newton). The blocks
    bound the memory the batched Newton takes.
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
                  u=u[p], mc=mc[p])
            for p in range(X.shape[0])]


def simulate_stochastic(net: PowerNetwork, comm: CommunicationGraph | None,
                        law: str, gains: GainSchedule, scenario: Scenario,
                        model: str = MODELS[0]) -> tuple[list[Trace], Metrics]:
    """Euler-Maruyama ensemble under white-noise load disturbances.

    All paths step together as one (paths, dim) state. Per-path noise
    streams are spawned deterministically from the scenario seed, so a path
    does not depend on how many others run beside it. With
    ``model="linear"`` the drift is affine and is read as the model's
    matrices on every network, so no step solves the passive balance; the
    sine model evaluates its right-hand side. Rows are recorded at
    :meth:`Scenario.record_times`, the last at ``n * h``. Noise that
    reaches a frequency directly, at a load bus or through a passive one,
    would make ``E_S`` grow like ``1 / h``: read off the stepped model
    linearized at rest, it raises :class:`DomainError` before any step, as
    does a step ``h`` the stepper cannot resolve (:func:`_refuse_unstable_step`).
    """
    if scenario.kind is not ScenarioKind.NOISE:
        raise DomainError("simulate_stochastic needs a noise scenario")
    if scenario.seed is None:
        raise DomainError("stochastic runs need a seed for reproducibility")
    sig = _node_vector(net, scenario.sigma)
    model_obj, x0 = _start(net, comm, law, gains, model)
    p = net.injections
    # the linear drift's constant term, the rhs at the origin: solved first,
    # cold, as the linearization would warm-start it at the rest state
    b = model_obj.rhs(np.zeros(model_obj.dim), p) if model == "linear" else None
    A, B = model_obj.linearize(x0, p)
    _refuse_feedthrough(model_obj, B * sig, "--sigma on machine buses")
    _refuse_unstable_step(model_obj, A, B, scenario.h)
    if b is not None:
        A_T, B_T = A.T, B.T

        def drift(X, W):
            return X @ A_T + (W @ B_T + b)
    else:
        def drift(X, W):
            return model_obj.rhs(X, p + W)

    t, X, W = _euler_maruyama(drift, x0, sig, scenario)
    traces = _traces(model_obj, t, X, p + W)
    return traces, _ensemble_metrics(traces, net.prices, scenario.burn_in)


def _refuse_unstable_step(model_obj, A, B, h) -> None:
    """Raise :class:`DomainError` unless Euler-Maruyama at step ``h`` is
    mean-square stable on the loop ``(A, B)`` of ``model_obj`` at rest,
    every bus an input: |1 + h lambda| < 1 for every eigenvalue lambda of
    the deflated ``A``. The conserved modes the deflation drops are never
    excited. The message names the largest stable step, the least
    ``-2 Re lambda / |lambda|^2``."""
    loop = deflate_zero_mode(StateSpace(A=A, B=B, B_in=np.eye(model_obj.n),
                                        model=model_obj))
    lam = np.linalg.eigvals(loop.A)
    growth = np.abs(1.0 + h * lam)
    k = int(growth.argmax())
    if growth[k] >= 1.0:
        h_max = float(np.min(-2.0 * lam.real / np.abs(lam) ** 2))
        raise DomainError(
            f"Euler-Maruyama step h = {h:g} does not resolve the loop: "
            f"max |1 + h lambda| = {growth[k]:.4g} >= 1 at lambda = {lam[k]:.4g}, "
            f"so the ensemble diverges; the largest stable step is {h_max:.3g}")


def _euler_maruyama(drift, x0, sig, scenario):
    """Step ``X + h * drift(X, W)`` from ``x0`` on each of the scenario's
    paths, ``W`` being the white-noise load jitter ``sig * N(0, 1) / sqrt(h)``
    per node, over the n steps to ``t_end``.

    Returns :meth:`Scenario.record_times` and, with shapes
    (paths, T, .), the states and the jitter of the step that led to each
    recorded row (zero on a row at step 0).
    """
    h, paths = scenario.h, scenario.paths
    sqrt_h = math.sqrt(h)
    rec = scenario.record_steps()
    n_steps = rec[-1]
    rngs = [np.random.Generator(np.random.Philox(s))
            for s in np.random.SeedSequence(scenario.seed).spawn(paths)]
    X_rec = np.empty((len(rec), paths, len(x0)))
    W_rec = np.zeros((len(rec), paths, len(sig)))
    X = np.tile(x0, (paths, 1))
    if 0 in rec:
        X_rec[0] = X
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
            if step in rec:
                # checked where recorded: no other state reaches the output
                blowup = _first_blowup(X)
                if blowup:
                    path, size = blowup
                    raise NumericalBlowup(
                        f"stochastic ensemble diverged by t = {step * h:g} s: "
                        f"path {path}, max |x| = {size:g}")
                row = rec.index(step)
                X_rec[row] = X
                W_rec[row] = W[k]
    return scenario.record_times(), X_rec.transpose(1, 0, 2), W_rec.transpose(1, 0, 2)


def compute_metrics(trace: Trace, alpha, t0: float = METRICS_T0) -> Metrics:
    """The windowed quadratic costs of a step study's trace: S integrates
    the squared frequency deviations and C half the price-weighted squared
    inputs over [0, t0], by the trapezoid rule on the trace's grid. A
    ``t0`` between two rows ends inside their panel, where the integrand
    is the rule's own linear interpolant; one at most ``METRICS_T0_SLACK``
    past the last row is read at that row, and that row's time is the
    ``t0`` returned.

    A ``t0`` that is not finite and positive raises :class:`DomainError`,
    an ``alpha`` that is not one price per controller :class:`ShapeError`,
    and one further past the last row :class:`InsufficientHorizon`.
    """
    alpha = np.asarray(alpha, dtype=float)
    # an empty or undefined window would read S = C = 0
    if not 0 < t0 < math.inf:
        raise DomainError(f"metrics window end t0 must be finite and positive, got {t0}")
    if alpha.shape != (len(trace.controller_ids),):
        raise ShapeError(f"alpha has shape {alpha.shape}, needs one price per "
                         f"controller: ({len(trace.controller_ids)},)")
    t = trace.t
    if t[-1] < t0 - METRICS_T0_SLACK:
        raise InsufficientHorizon(f"trace ends at {t[-1]}, needs t0={t0}")
    t0 = min(t0, float(t[-1]))
    # whole panels up to t0, a row within 1e-12 of it counting as at t0,
    # and the row after them, which ends the partial panel. Indexing copies
    # the rows in row-major order, on which the last bit of a row sum depends.
    k = int(np.searchsorted(t, t0 + 1e-12, side="right"))
    s_rows, c_rows = _row_costs(trace, np.arange(min(k + 1, len(t))), alpha)
    return Metrics(S=_window_integral(s_rows, t, k, t0),
                   C=0.5 * _window_integral(c_rows, t, k, t0), t0=t0)


def _row_costs(trace: Trace, rows, alpha):
    """Per row ``rows`` of ``trace``, the two costs' integrands: the sum
    over the controllers of omega^2, and of alpha u^2."""
    return ((trace.omega_controllers[rows] ** 2).sum(axis=1),
            (trace.u[rows] ** 2 * alpha).sum(axis=1))


def _window_integral(f, t, k, t0) -> float:
    """Integral over [0, t0] of the linear interpolant of ``f`` at the
    times ``t``: the trapezoid rule over the first ``k`` rows, plus the
    part of the next panel up to ``t0``, if ``t0`` lies more than 1e-12
    past row ``k - 1``."""
    whole = float(np.trapezoid(f[:k], t[:k]))
    if k == len(t) or t0 - t[k - 1] <= 1e-12:
        return whole
    width = t0 - t[k - 1]
    f_t0 = f[k - 1] + (f[k] - f[k - 1]) * (width / (t[k] - t[k - 1]))
    return whole + float(0.5 * (f[k - 1] + f_t0) * width)


def _ensemble_metrics(traces, alpha, burn_in: float) -> Metrics:
    """The stationary expectations E_S and E_C of a noise run, averaged over
    the recorded rows from ``burn_in`` on and over the paths, with
    path-spread standard errors (None for one path)."""
    alpha = np.asarray(alpha, dtype=float)
    per_path_s, per_path_c = [], []
    for tr in traces:
        # Scenario keeps a recorded row at or after the burn-in
        mask = tr.t >= burn_in - 1e-12
        s_rows, c_rows = _row_costs(tr, mask, alpha)
        per_path_s.append(float(np.mean(s_rows)))
        per_path_c.append(0.5 * float(np.mean(c_rows)))
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

    One ``%``-template covers a time step: node ids, the prefix, the empty
    controller fields of nodes without a controller and the empty ``omega``
    of a node whose ``omega`` is NaN throughout (a passive node's) are
    literal text, every other number is ``%.12g``, and ``t``, formatted
    once per time step, takes the place of each ``"\\0"``. Any other NaN is
    written as an empty field too: a NaN time as it is formatted, and a NaN
    value by dropping ``nan`` from the text of a block holding one, as
    ``%`` prints NaN of either sign as ``nan``, a word no other field can
    contain.
    """
    n, c = len(trace.node_ids), len(trace.controller_ids)
    ctrl = {nid: k for k, nid in enumerate(trace.controller_ids)}
    no_omega = np.isnan(trace.omega).all(axis=0)
    # positions of a step's values in the template, in the stacked columns
    # theta | omega | eta | xi | u | mc
    order, rows = [], []
    for col, nid in enumerate(trace.node_ids):
        order.append(col)
        row = f"{prefix}\0,{nid},%.12g"
        if no_omega[col]:
            row += ","
        else:
            order.append(n + col)
            row += ",%.12g"
        k = ctrl.get(nid)
        if k is None:
            row += ",,,,"
        else:
            order += [2 * n + j * c + k for j in range(4)]
            row += ",%.12g" * 4
        rows.append(row + "\n")
    step = "".join(rows)
    columns = (trace.theta, trace.omega, trace.eta, trace.xi, trace.u, trace.mc)
    times = ["" if math.isnan(t) else "%.12g" % t for t in trace.t.tolist()]
    for a in range(0, len(times), _TRACE_BLOCK):
        block = slice(a, a + _TRACE_BLOCK)
        template = "".join([step.replace("\0", t) for t in times[block]])
        values = np.column_stack([col[block] for col in columns])[:, order]
        text = template % tuple(values.ravel().tolist())
        fh.write(text.replace("nan", "") if np.isnan(values).any() else text)


def write_trace_csv(fh, trace: Trace) -> None:
    fh.write(_CSV_HEADER + "\n")
    _write_rows(fh, trace)


def write_ensemble_csv(fh, traces) -> None:
    fh.write("path," + _CSV_HEADER + "\n")
    for p, trace in enumerate(traces):
        _write_rows(fh, trace, prefix=f"{p},")
