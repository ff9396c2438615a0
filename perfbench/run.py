"""Benchmark of the ``piac`` command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload h2|sim --seed N --seconds S --trace 0|1

One process, one client, closed loop: every op is one ``piac.cli.main(argv)``
call, made when the previous one has returned. A pass runs the workload's
fixed op list once (see ``workloads.py``); passes repeat until ``--seconds``
have gone by, and timings are medians per op. Each op's output is checked
after it returns, outside its timed interval (see ``checks.py``), and its
stdout and ``--out`` file must be byte-identical in every pass of the run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: spans from the
traced passes (``tracer.py``), per-command wall times from the untraced ones,
and the tracing overhead between the two. The last stdout line is the JSON
result; the lines before it hold the environment record and a sha256 digest
per op.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, layer_metrics

# checks, workloads, numpy and piac are imported only after pin_environment
# has pinned the BLAS threads, and piac's import counts as set-up time.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Setting up in fresh processes repeats the import and the first, lazily
# loaded LAPACK call; setup_s is the median over the samples.
SETUP_SAMPLES = 5
COMMANDS = ("analyze", "sweep", "simulate_step", "simulate_noise")


class SetupError(Exception):
    pass


@dataclass
class OpResult:
    seconds: float
    digest: str
    error: str | None


@dataclass
class Pass:
    traced: bool
    results: list = field(default_factory=list)     # OpResult per op
    stats: dict | None = None                        # span statistics if traced

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.results)


def pin_environment() -> int:
    """Pin the BLAS pool to the CPUs this process may run on; unset
    PIAC_WORKERS so the program runs serially. Must precede numpy's import."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ.pop("PIAC_WORKERS", None)
    return threads


@contextlib.contextmanager
def scratch_dir():
    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import piac, write and validate the inputs, run one warm-up op.

    Returns the seconds it took, the ops and the CLI entry point.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import piac.cli
    if not Path(piac.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"imported piac from {piac.cli.__file__}, not {ROOT / 'src'}")
    import workloads
    ops = workloads.build(workload, seed, workdir, tiny)
    workloads.validate(ops)
    warm = run_op(piac.cli.main, ops[0])
    if warm.error:
        raise SetupError(f"warm-up op {ops[0].name} failed: {warm.error}")
    return time.perf_counter() - t0, ops, piac.cli.main


def run_op(main, op, reference=None, tracer=None) -> OpResult:
    """Time one CLI call, then check its output outside the timed interval."""
    import checks
    if op.out:
        Path(op.out).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(op.argv))
        except (Exception, SystemExit) as exc:
            # an op that raises is a failed op, the run goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if code not in (0, None):
        error = f"exit {code}: {err.getvalue().strip()[-300:]}"
    digest = hashlib.sha256(out.getvalue().encode())
    out_text = None
    if op.out and error is None:
        data = Path(op.out).read_bytes()
        digest.update(data)
        out_text = data.decode()
    if error is None:
        error = checks.check(op, out.getvalue(), out_text, reference)
    return OpResult(seconds, digest.hexdigest(), error)


def measure(main, ops, reference, seconds: float, trace: bool) -> list[Pass]:
    """Run the op list over and over for ``seconds``: the first pass is whole,
    the last one stops after the op that ends past ``seconds``. With
    ``trace``, untraced and traced passes alternate, every pass is whole,
    passes stop when the next one would overrun and each kind runs at least
    once. An op whose output differs from its first pass's has failed."""
    passes = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        this = Pass(traced)
        passes.append(this)
        for k, op in enumerate(ops):
            result = run_op(main, op, reference, tracer)
            first = passes[0].results[k] if len(passes) > 1 else result
            if result.error is None and result.digest != first.digest:
                result.error = "output differs from the first pass"
            this.results.append(result)
            if (not trace and (len(passes) > 1 or k == len(ops) - 1)
                    and time.perf_counter() - start > seconds):
                return passes
        if tracer:
            this.stats = dict(tracer.stats)
        now = time.perf_counter()
        if trace and len(passes) >= 2 and now - start + (now - p0) > seconds:
            return passes


def setup_probe_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Set-up time of a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0",
           "--setup-probe"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _median_of(passes, fn) -> float:
    return statistics.median(fn(p) for p in passes) if passes else 0.0


def op_results(k: int, passes) -> list[OpResult]:
    """The results of op ``k`` in every pass that ran it."""
    return [p.results[k] for p in passes if k < len(p.results)]


def end_to_end(passes, setup_samples) -> dict:
    # run_s, the time of one pass, is dominated by the slowest ops; the
    # geometric mean of the per-op medians weighs every op alike, so it also
    # moves when only small ops do. The first pass is whole.
    op_medians = [statistics.median(r.seconds for r in op_results(k, passes))
                  for k in range(len(passes[0].results))]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "run_s": (sum(op_medians), "s"),
        "op_gmean_ms": (statistics.geometric_mean(op_medians) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(ops, passes) -> dict:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    layers = [layer_metrics(p.stats) for p in traced]
    units = {"s": "s", "self_s": "s", "calls": "count", "nfev": "count",
             "max_dim": "count", "us_per_rhs": "us", "path_steps": "count",
             "us_per_path_step": "us", "bytes": "B"}
    metrics = {name: (statistics.median(m[name] for m in layers),
                      units[name.rsplit(".", 1)[1]]) for name in layers[0]}

    def command_seconds(p, command):
        return sum((r.seconds for op, r in zip(ops, p.results)
                    if op.command == command), 0.0)

    for command in COMMANDS:
        metrics[f"{command}_s"] = (_median_of(plain, lambda p: command_seconds(p, command)),
                                   "s")
    noise_s = metrics["simulate_noise_s"][0]
    path_steps = sum(op.facts.get("path_steps", 0) for op in ops)
    metrics["path_steps_per_s"] = (path_steps / noise_s if noise_s else 0.0, "1/s")
    results = [r for p in passes for r in p.results]
    metrics["fail_ratio"] = (sum(r.error is not None for r in results) / len(results),
                             "ratio")
    overhead = (_median_of(traced, lambda p: p.seconds)
                / _median_of(plain, lambda p: p.seconds) - 1.0)
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return metrics


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: int, tiny: bool) -> dict:
    import numpy
    import scipy
    import workloads
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads, "PIAC_WORKERS": "unset",
        "git_commit": _git_commit(), "tiny": tiny,
        "noise_horizon": {"t_end": workloads.NOISE_T_END,
                          "burn_in": workloads.NOISE_BURN_IN, "h": workloads.NOISE_H,
                          "paths": {f"{c}-{m}": n for c, m, n, _ in workloads.NOISE_OPS}},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("h2", "sim"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (smoke tests; no stored reference)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the seconds it took")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "piac" / "__init__.py").is_file():
        print(f"no piac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_environment()
    try:
        with scratch_dir() as workdir:
            setup_s, ops, piac_main = setup(args.workload, args.seed, workdir, args.tiny)
            if args.setup_probe:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            setup_samples = [setup_s]
            if not args.trace:
                setup_samples += [setup_probe_seconds(args.workload, args.seed, args.tiny)
                                  for _ in range(SETUP_SAMPLES - 1)]
            import checks
            reference = None if args.tiny else checks.load_reference(
                args.workload, args.seed, ops)
            passes = measure(piac_main, ops, reference, args.seconds, bool(args.trace))
    except (SetupError, ImportError, ValueError, OSError,
            subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(threads, args.tiny), sort_keys=True))
    run_digest = hashlib.sha256()
    for k, op in enumerate(ops):
        results = op_results(k, passes)
        run_digest.update(results[0].digest.encode())
        errors = {r.error for r in results if r.error}
        print(f"op {op.name:34s} {statistics.median(r.seconds for r in results):9.4f} s "
              f"sha256={results[0].digest[:16]}" + "".join(f" FAIL {e}" for e in errors))
    print(f"digest {run_digest.hexdigest()} passes={len(passes)}")

    metrics = per_layer(ops, passes) if args.trace else end_to_end(passes, setup_samples)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(r.error is not None for p in passes for r in p.results)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
