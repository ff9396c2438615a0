"""Per-layer spans for the traced benchmark run.

``Tracer`` swaps public functions of the piac modules for timing wrappers for
the length of a ``with`` block and puts the originals back afterwards. Every
piac module namespace that holds the function is patched, so calls that go
through an import such as ``from .h2 import analyze`` are seen too. Private
helpers (``_SimModel``, ``_build_trace``, ``_stochastic_*``) are never
wrapped: their cost is the self time of the public function that calls them.

Spans nest: a span's self time is its duration minus the time of the wrapped
calls made inside it. Only calls that return are recorded.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict
from importlib import import_module


def _lyapunov(args, result):
    dim = len(args["A"])
    # dense solves run on whole closed loops, block solves on the 2x2-4x4
    # modal blocks of homogeneous networks
    if dim > 4:
        return "h2.lyapunov_solve.dense", {"max_dim": dim}
    return "h2.lyapunov_solve.block", {}


def _solve_ivp(args, result):
    return "sim.solve_ivp", {"nfev": result.nfev}


def _euler_maruyama(args, result):
    scen = args["scenario"]
    steps = scen.paths * round(scen.t_end / scen.h)
    return f"sim.em.{args['model']}", {"path_steps": steps}


def _write_csv(args, result):
    # the CLI writes into a fresh buffer, so its position is the size written
    return "sim.write_csv", {"bytes": args["fh"].tell()}


# (module, public attribute, span name or hook returning (span, counters))
TARGETS = (
    ("piac.h2", "lyapunov_solve", _lyapunov),
    ("piac.h2", "grammians", "h2.grammians"),
    ("piac.h2", "analyze", "h2.analyze"),
    ("piac.h2", "h2_modal", "h2.h2_modal"),
    ("piac.h2", "h2_gbpiac_analytic", "h2.closed_form"),
    ("piac.h2", "h2_dpiac_analytic", "h2.closed_form"),
    ("piac.h2", "h2_bounds_general_B", "h2.closed_form"),
    ("piac.h2", "limit_k1_infinity", "h2.closed_form"),
    ("piac.closedloop", "assemble_gbpiac", "closedloop.assemble"),
    ("piac.closedloop", "assemble_dpiac", "closedloop.assemble"),
    ("piac.closedloop", "assemble_decpiac", "closedloop.assemble"),
    ("piac.closedloop", "deflate_zero_mode", "closedloop.deflate_zero_mode"),
    ("piac.netmodel", "spectral_decompose", "netmodel.spectral_decompose"),
    ("piac.casefile", "load_case", "casefile.load_case"),
    ("piac.sim", "solve_ivp", _solve_ivp),
    ("piac.sim", "simulate_deterministic", "sim.simulate_deterministic"),
    ("piac.sim", "find_equilibrium", "sim.find_equilibrium"),
    ("piac.sim", "compute_metrics", "sim.compute_metrics"),
    ("piac.sim", "simulate_stochastic", _euler_maruyama),
    ("piac.sim", "write_trace_csv", _write_csv),
    ("piac.sim", "write_ensemble_csv", _write_csv),
)


class Tracer:
    """Context manager recording ``<span>.s``, ``.self_s``, ``.calls`` and
    hook counters into ``stats`` while the wrappers are installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = defaultdict(float)
        self.patched = []          # (module, attribute, original)
        self._stack = []           # child time accumulated per open span

    def __enter__(self):
        try:
            for module, attr, span in self.targets:
                original = getattr(import_module(module), attr)
                wrapper = self._wrap(original, span)
                for mod in [m for name, m in list(sys.modules.items())
                            if name == "piac" or name.startswith("piac.")]:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)
                            self.patched.append((mod, name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self.patched:
            mod, name, original = self.patched.pop()
            setattr(mod, name, original)

    def _wrap(self, fn, span):
        stats, stack = self.stats, self._stack
        sig = None if isinstance(span, str) else inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
            name, counters = span, {}
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                name, counters = span(bound.arguments, result)
            stats[name + ".s"] += dur
            stats[name + ".self_s"] += dur - child
            stats[name + ".calls"] += 1
            for key, value in counters.items():
                if key.startswith("max_"):
                    stats[f"{name}.{key}"] = max(stats[f"{name}.{key}"], value)
                else:
                    stats[f"{name}.{key}"] += value
            return result

        return wrapper


def _per(total_s: float, count: float, scale: float = 1e6) -> float:
    return total_s / count * scale if count else 0.0


def layer_metrics(stats) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from the span statistics."""
    s = defaultdict(float, stats)
    return {
        "h2.lyapunov_solve.dense.s": s["h2.lyapunov_solve.dense.s"],
        "h2.lyapunov_solve.dense.calls": s["h2.lyapunov_solve.dense.calls"],
        "h2.lyapunov_solve.dense.max_dim": s["h2.lyapunov_solve.dense.max_dim"],
        "h2.lyapunov_solve.block.s": s["h2.lyapunov_solve.block.s"],
        "h2.lyapunov_solve.block.calls": s["h2.lyapunov_solve.block.calls"],
        "h2.grammians.calls": s["h2.grammians.calls"],
        "h2.analyze.calls": s["h2.analyze.calls"],
        "h2.h2_modal.s": s["h2.h2_modal.s"],
        "h2.closed_form.s": s["h2.closed_form.s"],
        "closedloop.assemble.s": s["closedloop.assemble.s"],
        "closedloop.assemble.calls": s["closedloop.assemble.calls"],
        "closedloop.deflate_zero_mode.s": s["closedloop.deflate_zero_mode.s"],
        "netmodel.spectral_decompose.s": s["netmodel.spectral_decompose.s"],
        "casefile.load_case.s": s["casefile.load_case.s"],
        "sim.solve_ivp.s": s["sim.solve_ivp.s"],
        "sim.solve_ivp.nfev": s["sim.solve_ivp.nfev"],
        "sim.solve_ivp.us_per_rhs": _per(s["sim.solve_ivp.s"], s["sim.solve_ivp.nfev"]),
        "sim.simulate_deterministic.self_s": s["sim.simulate_deterministic.self_s"],
        "sim.find_equilibrium.s": s["sim.find_equilibrium.s"],
        "sim.compute_metrics.s": s["sim.compute_metrics.s"],
        "sim.em.path_steps": s["sim.em.sin.path_steps"] + s["sim.em.linear.path_steps"],
        "sim.em.sin.us_per_path_step": _per(s["sim.em.sin.self_s"],
                                            s["sim.em.sin.path_steps"]),
        "sim.em.linear.us_per_path_step": _per(s["sim.em.linear.self_s"],
                                               s["sim.em.linear.path_steps"]),
        "sim.write_csv.s": s["sim.write_csv.s"],
        "sim.write_csv.bytes": s["sim.write_csv.bytes"],
    }
