"""Command-line front end: validate / analyze / sweep / simulate.
``simulate`` and ``sweep --sim`` run a study through one path, :func:`_study`:
a step study's trace and its S and C, or a noise run's ensemble and E_S, E_C.

Exit codes: 0 ok, 2 usage or case-format problem, 3 connectivity,
4 gain constraints, 5 analysis failure, 6 closed-form analysis refused
(heterogeneous case), 7 numerical failure during simulation. Output files
are written atomically (temp file + rename), numbers with 12 significant
digits, so reruns with identical inputs and seed are byte-identical.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import svgplot
from .casefile import load_case
from .closedloop import MODELS, OutputSelector, assemble
from .controllers import LAWS, GainSchedule, law_homogeneity
from .errors import (CaseFormatError, DAESolveError, DisconnectedNetwork,
                     DomainError, GainConstraintError, InsufficientHorizon,
                     NumericalBlowup, PiacError, ShapeError,
                     SolverAccuracyError, UnstableSystem,
                     UnsupportedForModalPath)
from .h2 import analyze, h2_norms
from .netmodel import NodeKind, check_homogeneous
from .scenario import _FOREIGN, DEFAULTS, Scenario, ScenarioKind
from .sim import (METRICS_T0, METRICS_T0_SLACK, compute_metrics,
                  simulate_deterministic, simulate_stochastic, write_ensemble_csv,
                  write_trace_csv)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONNECTIVITY = 3
EXIT_GAINS = 4
EXIT_ANALYSIS = 5
EXIT_ANALYTIC_REFUSED = 6
EXIT_NUMERICAL = 7


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


def _atomic_write(path: str, write) -> None:
    """``write(fh)`` streams into a temporary file, renamed over ``path`` only
    after ``write`` returns."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, lambda fh: fh.write(text))
    else:
        sys.stdout.write(text)


def _refuse_k3(args, what: str) -> None:
    """``what`` sets k3, which only the consensus term of dpiac reads: a
    usage error under the other laws."""
    if args.law != "dpiac":
        raise _Usage(f"{what} sets the consensus gain k3 of dpiac; "
                     f"{args.law} does not read it")


def _k3_from(args, file_gains) -> float:
    """``--k3``, which only dpiac reads, else the case file's k3, else 0."""
    if args.k3 is None:
        return file_gains.k3 if file_gains else 0.0
    _refuse_k3(args, "--k3")
    return args.k3


def _gains_from(args, file_gains) -> GainSchedule:
    k3 = _k3_from(args, file_gains)
    k1 = args.k1 if args.k1 is not None else (file_gains.k1 if file_gains else None)
    if k1 is None:
        raise _Usage("no gains: case file has no [gains] section, pass --k1 (and --k2)")
    if args.k1 is not None and args.k2 is None:
        # the file's k2 belongs to the file's k1; a new k1 alone takes
        # k2 = 4 k1, as `sweep --param k1` does
        return GainSchedule.analytic(k1, k3)
    k2 = args.k2 if args.k2 is not None else file_gains.k2
    return GainSchedule(k1=k1, k2=k2, k3=k3)


class _Usage(Exception):
    pass


def _number(tok: str, flag: str, kind=float):
    """``tok`` read as a ``kind``; a malformed token, or ``nan`` and ``inf``,
    is a usage error."""
    try:
        value = kind(tok)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise _Usage(f"{flag}: {tok!r} is not {what}") from None
    if not math.isfinite(value):
        raise _Usage(f"{flag}: {tok!r} is not a finite number")
    return value


def _b_in(args, net):
    """The disturbance matrix of ``--b-diag``, None (the identity) without it."""
    if not args.b_diag:
        return None
    diag = [_number(tok, "--b-diag") for tok in args.b_diag.split(",")]
    if len(diag) != net.n_nodes:
        raise _Usage(f"--b-diag needs {net.n_nodes} entries, got {len(diag)}")
    return np.diag(diag)


def _refuse_unread(args, flags, mode: str) -> None:
    """A flag of ``flags`` that the command has and was given is a usage
    error: the commands in ``mode`` never read it."""
    given = [flag for flag in flags
             if getattr(args, flag[2:].replace("-", "_"), None) is not None]
    if given:
        raise _Usage(f"{mode} do not read {', '.join(given)}")


def _foreign_flags(kind: ScenarioKind) -> list[str]:
    """The flags a ``kind`` study never reads: those of the fields a
    ``kind`` scenario refuses (``--step`` sets ``steps``), and for noise the
    step study's metrics window ``--t0``."""
    names = _FOREIGN[kind] + (("t0",) if kind is ScenarioKind.NOISE else ())
    return ["--step" if name == "steps" else "--" + name.replace("_", "-")
            for name in names]


def _t0(args) -> float:
    """``--t0``, the end of the metrics window [0, t0]; METRICS_T0 if not given."""
    if args.t0 is None:
        return METRICS_T0
    # the metrics integrate over [0, t0]; an empty window would read 0
    if not args.t0 > 0:
        raise _Usage(f"--t0 must be positive, got {args.t0:g}")
    return args.t0


def _refuse_t0_past(t0: float, scenario) -> None:
    """A metrics window [0, t0] ending past a step study's last recorded
    time is a usage error, found before the study runs; the slack is the
    one :func:`compute_metrics` allows. Noise runs read no window."""
    if scenario.kind is ScenarioKind.NOISE:
        return
    last = scenario.record_times()[-1]
    if last < t0 - METRICS_T0_SLACK:
        raise _Usage(f"--t0 {_fmt(t0)} lies past the last recorded time {_fmt(last)} s")


# the metrics a study's kind reports, as named in Metrics and in a sweep's columns
_STUDY_METRICS = {ScenarioKind.STEP: ("S", "C"), ScenarioKind.NOISE: ("E_S", "E_C")}


def _study(net, comm, law: str, gains, scenario, model: str, t0: float):
    """The traces and metrics of the study ``scenario``: a step study's one
    trace and its S and C over [0, t0], or a noise run's ensemble and E_S, E_C."""
    if scenario.kind is ScenarioKind.NOISE:
        return simulate_stochastic(net, comm, law, gains, scenario, model=model)
    trace = simulate_deterministic(net, comm, law, gains, scenario, model=model)
    return [trace], compute_metrics(trace, net.prices, t0)


# --- validate ------------------------------------------------------------------


def cmd_validate(args) -> int:
    net, comm, gains, scenario = load_case(args.case)
    rep = check_homogeneous(net, comm)
    print(f"case: {args.case}")
    kinds = ", ".join(f"{sum(node.kind is kind for node in net.nodes)} {kind.value}"
                      for kind in NodeKind)
    print(f"nodes: {net.n_nodes} ({kinds}), edges: {len(net.edges)}")
    print("connectivity: ok" + ("" if comm is None else " (power and communication)"))
    if gains is not None:
        mode = "analytic (k2 = 4 k1)" if gains.analytic_mode else "permitted (k2 >= 4 k1)"
        print(f"gains: k1={_fmt(gains.k1)} k2={_fmt(gains.k2)} k3={_fmt(gains.k3)} [{mode}]")
    if scenario is not None:
        print(f"scenario: {scenario.kind.value}, t_end={_fmt(scenario.t_end)}")
    if rep.passed:
        print("homogeneity: pass (closed-form analysis available)")
    else:
        print("homogeneity: fail (" + "; ".join(rep.reasons) + ")")
    return EXIT_OK


# --- analyze -------------------------------------------------------------------


def cmd_analyze(args) -> int:
    net, comm, file_gains, _ = load_case(args.case)
    gains = _gains_from(args, file_gains)
    selector = OutputSelector.from_token(args.selector)
    hom = law_homogeneity(net, comm, args.law, gains,
                          selector is OutputSelector.MARGINAL_COST_SPREAD)
    if args.analytic and not (hom.passed and gains.analytic_mode):
        why = "; ".join(hom.reasons) if not hom.passed else "k2 != 4*k1"
        print(f"closed-form analysis refused: {why}", file=sys.stderr)
        return EXIT_ANALYTIC_REFUSED
    rep = analyze(net, comm, gains, args.law, selector, B_in=_b_in(args, net),
                  with_limits=args.limits)
    # the values as printed: round-off below the 12th digit moves neither
    # them nor their gap
    analytic, numeric = (v if v is None else float(_fmt(v))
                         for v in (rep.analytic, rep.numeric))
    fields = {
        "law": rep.law, "selector": rep.selector,
        "numeric": numeric, "analytic": analytic,
        "rel_gap": (None if analytic is None
                    else abs(analytic - numeric) / max(1.0, abs(numeric))),
        "bound_lo": rep.bounds[0] if rep.bounds else None,
        "bound_hi": rep.bounds[1] if rep.bounds else None,
        "limit_k1_inf": rep.limit_k1, "limit_k3_inf": rep.limit_k3,
    }
    if args.format == "json":
        payload = {k: (float(_fmt(v)) if isinstance(v, float) else v)
                   for k, v in fields.items()}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        header = ",".join(fields)
        row = ",".join(v if isinstance(v, str) else _fmt(v) for v in fields.values())
        _emit(header + "\n" + row + "\n", args.out)
    return EXIT_OK


# --- sweep ---------------------------------------------------------------------


def _grid(args) -> tuple[float, ...]:
    """The ``--grid`` values, which must be positive and strictly increasing."""
    grid = tuple(_number(tok, "--grid") for tok in args.grid.split(",") if tok.strip())
    if not grid:
        raise _Usage("sweep grid is empty")
    if any(not v > 0 for v in grid):
        raise _Usage("sweep grid values must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise _Usage("sweep grid must be strictly increasing")
    return grid


_SWEPT = (OutputSelector.FREQUENCY_DEVIATION, OutputSelector.CONTROL_INPUT,
          OutputSelector.MARGINAL_COST_SPREAD)


def cmd_sweep(args) -> int:
    unread = (_foreign_flags(ScenarioKind(args.sim)) if args.sim else
              [*_foreign_flags(ScenarioKind.STEP), "--model",
               *_foreign_flags(ScenarioKind.NOISE)])
    _refuse_unread(args, unread,
                   "sweeps " + (f"with --sim {args.sim}" if args.sim else "without --sim"))
    # the grid sets the swept gain, and k2 with k1
    _refuse_unread(args, ("--k1", "--k2") if args.param == "k1" else ("--k3",),
                   f"sweeps over {args.param}")
    if args.param == "k3":
        _refuse_k3(args, "--param k3")
    net, comm, file_gains, scenario = load_case(args.case)
    if args.param == "k1":
        k3 = _k3_from(args, file_gains)
    else:
        base = _gains_from(args, file_gains)
    grid = _grid(args)
    t0 = _t0(args)
    B_in = _b_in(args, net)
    if args.sim is not None:
        if scenario is None:
            raise _Usage("--sim needs a [scenario] section in the case file")
        want = ScenarioKind(args.sim)
        if scenario.kind is not want:
            raise _Usage(f"case scenario kind is {scenario.kind.value}, "
                         f"--sim asked for {args.sim}")
        if want is ScenarioKind.NOISE and scenario.seed is None and args.seed is None:
            raise _Usage("stochastic sweep needs a seed (case file or --seed)")
        if args.seed is not None:
            try:
                scenario = replace(scenario, seed=args.seed)
            except ValueError as exc:
                raise _Usage(str(exc)) from None
        _refuse_t0_past(t0, scenario)

    metrics = _STUDY_METRICS[ScenarioKind(args.sim)] if args.sim else ()
    rows = []
    for value in grid:
        # k1 moves with k2 = 4 k1, the closed forms' ratio
        gains = (GainSchedule.analytic(value, k3) if args.param == "k1"
                 else replace(base, k3=value))
        # one loop, read through the three outputs the columns name
        row = [value, *h2_norms(assemble(net, comm, args.law, gains, B_in), _SWEPT)]
        if args.sim:
            _, met = _study(net, comm, args.law, gains, scenario,
                            args.model or MODELS[0], t0)
            row += [getattr(met, name) for name in metrics]
        rows.append(row)
    header = [args.param, *(f"{sel.value}_norm" for sel in _SWEPT), *metrics]
    lines = [",".join(header), *(",".join(_fmt(v) for v in row) for row in rows)]
    _emit("\n".join(lines) + "\n", args.out)
    if args.svg:
        series = {name: [row[k + 1] for row in rows]
                  for k, name in enumerate(header[1:4])}
        chart = svgplot.svg_line_chart([row[0] for row in rows], series,
                                       title=f"{args.law} norms vs {args.param}",
                                       xlabel=args.param,
                                       logx=len(grid) > 2 and grid[-1] / grid[0] > 30)
        _emit(chart, args.svg)
    return EXIT_OK


# --- simulate ------------------------------------------------------------------


def _node_values(tokens, flag: str, net) -> dict[int, float]:
    """``NODE:VALUE`` tokens of ``flag`` as a mapping; a node that is not a
    bus of ``net``, or a bus named twice, is a usage error."""
    values = {}
    for tok in tokens or []:
        nid, _, value = tok.partition(":")
        node = _number(nid, flag, int)
        if node not in net.index_of:
            raise _Usage(f"{flag} {tok}: the case has no bus {node}")
        if node in values:
            raise _Usage(f"{flag} {tok}: bus {node} is named twice")
        values[node] = _number(value, flag)
    return values


def _scenario_from(args, file_scenario, net) -> Scenario:
    kind_tok = args.kind or (file_scenario.kind.value if file_scenario else None)
    if kind_tok is None:
        raise _Usage("no scenario: case file has no [scenario] section, pass --kind")
    kind = ScenarioKind(kind_tok)
    _refuse_unread(args, _foreign_flags(kind),
                   "step studies" if kind is ScenarioKind.STEP else "noise runs")
    base = file_scenario if (file_scenario and file_scenario.kind is kind) else None
    # a flag given wins over the case file's field; a field left None here
    # takes the kind's default in Scenario
    fields = {name: getattr(args, name) for name in (*DEFAULTS[kind], "seed")}
    if base is not None:
        fields = {name: getattr(base, name) if flag is None else flag
                  for name, flag in fields.items()}
    steps = {**(base.steps if base else {}), **_node_values(args.step, "--step", net)}
    sigma = {**(base.sigma if base else {}), **_node_values(args.sigma, "--sigma", net)}
    if kind is ScenarioKind.NOISE and fields["seed"] is None:
        raise _Usage("stochastic simulation needs --seed (or seed= in the case file)")
    try:
        return Scenario(kind=kind, steps=steps, sigma=sigma, **fields)
    except ValueError as exc:
        raise _Usage(str(exc)) from None


def cmd_simulate(args) -> int:
    t0 = _t0(args)
    net, comm, file_gains, file_scenario = load_case(args.case)
    gains = _gains_from(args, file_gains)
    scenario = _scenario_from(args, file_scenario, net)
    _refuse_t0_past(t0, scenario)
    traces, met = _study(net, comm, args.law, gains, scenario, args.model, t0)
    if scenario.kind is ScenarioKind.STEP:
        if args.out:
            _atomic_write(args.out, lambda fh: write_trace_csv(fh, traces[0]))
        print(f"S={_fmt(met.S)} C={_fmt(met.C)} (t0={_fmt(met.t0)})")
    else:
        if args.out:
            _atomic_write(args.out, lambda fh: write_ensemble_csv(fh, traces))
        # one path has no standard error
        se_s, se_c = ("n/a" if se is None else _fmt(se)
                      for se in (met.E_S_se, met.E_C_se))
        print(f"E_S={_fmt(met.E_S)} (se {se_s}) "
              f"E_C={_fmt(met.E_C)} (se {se_c}) "
              f"paths={len(traces)} burn_in={_fmt(met.burn_in)}")
    return EXIT_OK


# --- argument plumbing -----------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` reuses it."""
    ap = argparse.ArgumentParser(
        prog="piac",
        description="Secondary frequency control: H2 analysis and simulation.")
    sub = ap.add_subparsers(dest="command", required=True)
    kinds = [kind.value for kind in ScenarioKind]
    window = f"end of the S/C window (default {METRICS_T0:g})"

    def common(p):
        p.add_argument("--case", required=True, help="case file path")
        p.add_argument("--law", required=True, choices=LAWS)
        p.add_argument("--k1", type=float)
        p.add_argument("--k2", type=float)
        p.add_argument("--k3", type=float)
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("validate", help="check a case file")
    p.add_argument("--case", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="squared H2 norms for one law/selector")
    common(p)
    p.add_argument("--selector", default=OutputSelector.FREQUENCY_DEVIATION.value,
                   choices=[sel.value for sel in OutputSelector])
    p.add_argument("--analytic", action="store_true",
                   help="require the closed-form path (refuse otherwise)")
    p.add_argument("--limits", action="store_true", help="include k1/k3 limits")
    p.add_argument("--b-diag", help="diagonal disturbance matrix, comma floats")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sweep", help="norms (and optionally metrics) over a gain grid")
    common(p)
    p.add_argument("--param", required=True, choices=("k1", "k3"))
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--sim", choices=kinds,
                   help="also simulate at each grid point")
    p.add_argument("--seed", type=int)
    p.add_argument("--t0", type=float, help=window)
    p.add_argument("--model", choices=MODELS, help=f"default: {MODELS[0]}")
    p.add_argument("--b-diag", help="diagonal disturbance matrix of the norms, comma floats")
    p.add_argument("--svg", help="write an SVG chart of the norm columns")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("simulate", help="time-domain simulation")
    common(p)
    p.add_argument("--kind", choices=kinds)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--h", type=float,
                   help="Euler-Maruyama step (noise); recorded grid (step)")
    p.add_argument("--onset", type=float)
    p.add_argument("--step", action="append", metavar="NODE:DP")
    p.add_argument("--sigma", action="append", metavar="NODE:SIGMA")
    p.add_argument("--paths", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--t0", type=float, help=window)
    p.add_argument("--model", default=MODELS[0], choices=MODELS)
    p.set_defaults(fn=cmd_simulate)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CaseFormatError as exc:
        print(f"case format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DisconnectedNetwork as exc:
        print(f"connectivity error: {exc}", file=sys.stderr)
        return EXIT_CONNECTIVITY
    except GainConstraintError as exc:
        print(f"gain constraint violated: {exc}", file=sys.stderr)
        return EXIT_GAINS
    except (UnsupportedForModalPath, UnstableSystem, SolverAccuracyError,
            DomainError, ShapeError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (DAESolveError, NumericalBlowup, InsufficientHorizon) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PiacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
