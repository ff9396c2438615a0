"""Command-line front end: validate / analyze / sweep / simulate.

Exit codes: 0 ok, 2 usage or case-format problem, 3 connectivity,
4 gain constraints, 5 analysis failure, 6 closed-form analysis refused
(heterogeneous case), 7 numerical failure during simulation. Output files
are written atomically (temp file + rename), numbers with 12 significant
digits, so reruns with identical inputs and seed are byte-identical.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import svgplot
from .casefile import load_case
from .closedloop import OutputSelector
from .controllers import GainSchedule, law_homogeneity
from .errors import (CaseFormatError, DAESolveError, DisconnectedNetwork,
                     DomainError, GainConstraintError, InsufficientHorizon,
                     NumericalBlowup, PiacError, ShapeError,
                     SolverAccuracyError, UnstableSystem,
                     UnsupportedForLinearPath, UnsupportedForModalPath)
from .h2 import analyze
from .netmodel import check_homogeneous
from .scenario import DEFAULTS, Scenario, ScenarioKind
from .sim import (compute_metrics, simulate_deterministic, simulate_stochastic,
                  write_ensemble_csv, write_trace_csv)

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


def _gains_from(args, file_gains) -> GainSchedule:
    k1 = args.k1 if args.k1 is not None else (file_gains.k1 if file_gains else None)
    k3 = args.k3 if args.k3 is not None else (file_gains.k3 if file_gains else 0.0)
    if k1 is None:
        raise _Usage("no gains: case file has no [gains] section, pass --k1 (and --k2)")
    if args.k2 is not None:
        k2 = args.k2
    elif args.k1 is None:
        k2 = file_gains.k2
    else:
        # the file's k2 belongs to the file's k1; a new k1 alone takes
        # k2 = 4 k1, as `sweep --param k1` does
        k2 = 4.0 * k1
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


def _check_t0(t0: float) -> None:
    # the metrics integrate over [0, t0]; an empty window would read 0
    if not t0 > 0:
        raise _Usage(f"--t0 must be positive, got {t0:g}")


# --- validate ------------------------------------------------------------------


def cmd_validate(args) -> int:
    net, comm, gains, scenario = load_case(args.case)
    rep = check_homogeneous(net, comm)
    print(f"case: {args.case}")
    print(f"nodes: {net.n_nodes} ({len(net.machine_ids)} machine, "
          f"{len(net.freq_ids)} freq, {len(net.passive_ids)} passive), "
          f"edges: {len(net.edges)}")
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
    hom = law_homogeneity(net, comm, args.law,
                          selector is OutputSelector.MARGINAL_COST_SPREAD)
    if args.analytic and not (hom.passed and gains.analytic_mode):
        why = "; ".join(hom.reasons) if not hom.passed else "k2 != 4*k1"
        print(f"closed-form analysis refused: {why}", file=sys.stderr)
        return EXIT_ANALYTIC_REFUSED
    B_in = None
    if args.b_diag:
        diag = [_number(tok, "--b-diag") for tok in args.b_diag.split(",")]
        if len(diag) != net.n_nodes:
            raise _Usage(f"--b-diag needs {net.n_nodes} entries, got {len(diag)}")
        B_in = np.diag(diag)
    rep = analyze(net, comm, gains, args.law, selector, B_in=B_in,
                  with_limits=args.limits)
    fields = {
        "law": rep.law, "selector": rep.selector,
        "numeric": rep.numeric, "analytic": rep.analytic,
        "rel_gap": rep.rel_gap,
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


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: which gain moves, over which grid, for which law."""

    parameter: str
    grid: tuple[float, ...]
    law: str
    base_gains: GainSchedule
    sim_kind: str | None = None
    t0: float = 40.0

    def __post_init__(self):
        if self.parameter not in ("k1", "k3"):
            raise _Usage(f"sweep parameter must be k1 or k3, got {self.parameter!r}")
        if not self.grid:
            raise _Usage("sweep grid is empty")
        if any(not v > 0 for v in self.grid):
            raise _Usage("sweep grid values must be positive")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise _Usage("sweep grid must be strictly increasing")
        _check_t0(self.t0)

    def gains_at(self, value: float) -> GainSchedule:
        g = self.base_gains
        if self.parameter == "k1":
            # keep the analytic ratio while k1 moves
            return GainSchedule(k1=value, k2=4.0 * value, k3=g.k3)
        return GainSchedule(k1=g.k1, k2=g.k2, k3=value)


def cmd_sweep(args) -> int:
    net, comm, file_gains, scenario = load_case(args.case)
    base = _gains_from(args, file_gains)
    grid = tuple(_number(tok, "--grid") for tok in args.grid.split(",") if tok.strip())
    spec = SweepSpec(parameter=args.param, grid=grid, law=args.law,
                     base_gains=base, sim_kind=args.sim, t0=args.t0)
    if spec.sim_kind is not None:
        if scenario is None:
            raise _Usage("--sim needs a [scenario] section in the case file")
        want = ScenarioKind.STEP if spec.sim_kind == "step" else ScenarioKind.NOISE
        if scenario.kind is not want:
            raise _Usage(f"case scenario kind is {scenario.kind.value}, "
                         f"--sim asked for {spec.sim_kind}")
        if want is ScenarioKind.NOISE and scenario.seed is None and args.seed is None:
            raise _Usage("stochastic sweep needs a seed (case file or --seed)")
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)

    def norms_at(value: float):
        gains = spec.gains_at(value)
        row = [value]
        for sel in (OutputSelector.FREQUENCY_DEVIATION, OutputSelector.CONTROL_INPUT,
                    OutputSelector.MARGINAL_COST_SPREAD):
            row.append(analyze(net, comm, gains, spec.law, sel).numeric)
        if spec.sim_kind == "step":
            trace = simulate_deterministic(net, comm, spec.law, gains, scenario,
                                           model=args.model)
            met = compute_metrics(trace, net.prices, t0=spec.t0)
            row += [met.S, met.C]
        elif spec.sim_kind == "noise":
            _, met = simulate_stochastic(net, comm, spec.law, gains, scenario,
                                         model=args.model)
            row += [met.E_S, met.E_C]
        return row

    rows = [norms_at(value) for value in spec.grid]
    header = [spec.parameter, "omega_norm", "u_norm", "spread_norm"]
    if spec.sim_kind == "step":
        header += ["S", "C"]
    elif spec.sim_kind == "noise":
        header += ["E_S", "E_C"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    if args.svg:
        series = {name: [row[k + 1] for row in rows]
                  for k, name in enumerate(header[1:4])}
        svgplot.svg_line_chart(args.svg, [row[0] for row in rows], series,
                               title=f"{spec.law} norms vs {spec.parameter}",
                               xlabel=spec.parameter, ylabel="squared H2 norm",
                               logx=len(grid) > 2 and grid[-1] / grid[0] > 30)
    return EXIT_OK


# --- simulate ------------------------------------------------------------------


def _node_values(tokens, flag: str) -> dict[int, float]:
    """``NODE:VALUE`` tokens of ``flag`` as a mapping."""
    values = {}
    for tok in tokens or []:
        nid, _, value = tok.partition(":")
        node = _number(nid, flag, int)
        values[node] = _number(value, flag)
    return values


def _scenario_from(args, file_scenario, net) -> Scenario:
    kind_tok = args.kind or (file_scenario.kind.value if file_scenario else None)
    if kind_tok is None:
        raise _Usage("no scenario: case file has no [scenario] section, pass --kind")
    kind = ScenarioKind(kind_tok)
    base = file_scenario if (file_scenario and file_scenario.kind is kind) else None

    def pick(flag, attr):
        if flag is not None:
            return flag
        if base is not None and getattr(base, attr) is not None:
            return getattr(base, attr)
        return DEFAULTS[kind][attr]

    steps = dict(base.steps) if base else {}
    steps.update(_node_values(args.step, "--step"))
    sigma = dict(base.sigma) if base else {}
    sigma.update(_node_values(args.sigma, "--sigma"))

    def scenario(**fields):
        try:
            return Scenario(**fields)
        except ValueError as exc:
            raise _Usage(str(exc)) from None

    if kind is ScenarioKind.STEP:
        return scenario(kind=kind, t_end=pick(args.t_end, "t_end"),
                        h=pick(args.h, "h"), onset=pick(args.onset, "onset"),
                        steps=steps)
    seed = args.seed if args.seed is not None else (base.seed if base else None)
    if seed is None:
        raise _Usage("stochastic simulation needs --seed (or seed= in the case file)")
    return scenario(kind=kind, t_end=pick(args.t_end, "t_end"),
                    h=pick(args.h, "h"), sigma=sigma,
                    paths=int(pick(args.paths, "paths")),
                    burn_in=pick(args.burn_in, "burn_in"), seed=seed)


def cmd_simulate(args) -> int:
    _check_t0(args.t0)
    if args.stride < 1:
        raise _Usage(f"--stride must be at least 1, got {args.stride}")
    net, comm, file_gains, file_scenario = load_case(args.case)
    gains = _gains_from(args, file_gains)
    scenario = _scenario_from(args, file_scenario, net)
    if scenario.kind is ScenarioKind.STEP:
        trace = simulate_deterministic(net, comm, args.law, gains, scenario,
                                       model=args.model, stride=args.stride)
        met = compute_metrics(trace, net.prices, t0=args.t0)
        if args.out:
            _atomic_write(args.out, lambda fh: write_trace_csv(fh, trace))
        print(f"S={_fmt(met.S)} C={_fmt(met.C)} (t0={_fmt(met.t0)})")
    else:
        traces, met = simulate_stochastic(net, comm, args.law, gains, scenario,
                                          model=args.model)
        if args.out:
            _atomic_write(args.out, lambda fh: write_ensemble_csv(fh, traces))
        print(f"E_S={_fmt(met.E_S)} (se {_fmt(met.E_S_se)}) "
              f"E_C={_fmt(met.E_C)} (se {_fmt(met.E_C_se)}) "
              f"paths={len(traces)} burn_in={_fmt(met.burn_in)}")
    return EXIT_OK


# --- argument plumbing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="piac",
        description="Secondary frequency control: H2 analysis and simulation.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, law=True):
        p.add_argument("--case", required=True, help="case file path")
        if law:
            p.add_argument("--law", required=True,
                           choices=("gbpiac", "dpiac", "decpiac"))
            p.add_argument("--k1", type=float)
            p.add_argument("--k2", type=float)
            p.add_argument("--k3", type=float)
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("validate", help="check a case file")
    p.add_argument("--case", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="squared H2 norms for one law/selector")
    common(p)
    p.add_argument("--selector", default="omega", choices=("omega", "u", "us", "spread"))
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
    p.add_argument("--sim", choices=("step", "noise"),
                   help="also simulate at each grid point")
    p.add_argument("--seed", type=int)
    p.add_argument("--t0", type=float, default=40.0)
    p.add_argument("--model", default="sin", choices=("sin", "linear"))
    p.add_argument("--svg", help="write an SVG chart of the norm columns")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("simulate", help="time-domain simulation")
    common(p)
    p.add_argument("--kind", choices=("step", "noise"))
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--onset", type=float)
    p.add_argument("--step", action="append", metavar="NODE:DP")
    p.add_argument("--sigma", action="append", metavar="NODE:SIGMA")
    p.add_argument("--paths", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--t0", type=float, default=40.0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--model", default="sin", choices=("sin", "linear"))
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
    except (UnsupportedForLinearPath, UnsupportedForModalPath, UnstableSystem,
            SolverAccuracyError, DomainError, ShapeError) as exc:
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
