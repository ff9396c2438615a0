"""Seeded inputs and the fixed op list of each benchmark workload.

An op is one ``piac`` command line. Building a workload writes its case files
into a scratch directory with ``piac.save_case`` and returns the ops that use
them; the seed draws every free choice, so the program only ever sees the
generated files and flags.

* ``h2``: ``analyze`` and ``sweep`` on homogeneous cases plus a seeded ring
  ladder. The Lyapunov solves are nearly all of its time and the simulator
  never runs.
* ``sim``: the simulator, two kinds of study in one op list.

  - RK45 step studies on ``homogeneous10`` (no passive buses) and on
    ``ieee39-like`` (10 passive buses), so the cost of the passive Newton
    solves separates from the cost of the plain right-hand side.
  - Reduced-horizon Euler-Maruyama noise ensembles, nonlinear path by path on
    both cases and batched linear on ``homogeneous10`` as a same-layer
    control.

  No Lyapunov solve. The two kinds share one workload so that a run measures
  them over one long window: on a shared host the speed of a short window
  drifts too much to compare runs.

Step and noise outputs are checked against stored values, so their inputs
come from one of ``N_VARIANTS`` seed variants (``seed % N_VARIANTS``); the
``h2`` outputs have closed forms and use the seed as it is. The stored values
keep one part per kind of study (``SIM_PARTS``).
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import piac
from piac import (CommunicationGraph, GainSchedule, Node, NodeKind,
                  PowerNetwork, Scenario)

WORKLOADS = ("h2", "sim")
# part of reference.json -> the command of its ops
SIM_PARTS = {"step": "simulate_step", "noise": "simulate_noise"}
LAWS = ("gbpiac", "dpiac", "decpiac")
SELECTORS = ("omega", "u", "us", "spread")
N_VARIANTS = 8

# gains of the bundled homogeneous case, reused on the ring ladder
RING_GAINS = GainSchedule(k1=0.8, k2=3.2, k3=4.0)
RING_SIZES = (10, 15, 20)
K3_CHOICES = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
K1_CHOICES = (0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 2.0)

STEP_OUT = {("h10", "gbpiac"), ("h10", "decpiac"), ("ieee39", "dpiac")}

# Reduced noise horizon (the CLI default is t_end=250 s, burn-in 50 s,
# 20 paths). --burn-in is always passed: below t_end=50 s the default burn-in
# is rejected with a bare traceback.
NOISE_H = 1e-3
NOISE_T_END = 4.0
NOISE_BURN_IN = 1.0
# (case, model, paths, writes --out); ieee39 noise stays on machine buses
# 30-39, because noise at a frequency-dependent bus feeds straight into omega
NOISE_OPS = (("h10", "sin", 4, True), ("h10", "linear", 40, False),
             ("ieee39", "sin", 2, False))
# (bus pool, buses drawn). The passive Newton work grows with the jitter at
# machines next to passive buses (31, 32, 35, 39); drawing among those would
# swing the cost of an ieee39 op by 2x from seed to seed, so there the seed
# draws only the noise streams and every machine bus gets the same strength.
NOISE_BUSES = {"h10": (range(1, 11), 5), "ieee39": (range(30, 40), 10)}
NOISE_SIGMA = 0.01


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the facts its correctness check needs."""

    name: str
    command: str              # analyze | sweep | simulate_step | simulate_noise
    argv: tuple[str, ...]
    case: str
    law: str
    out: str | None = None
    facts: dict = field(default_factory=dict)


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """Write the workload's case files into ``workdir`` and return its ops.

    ``tiny`` shrinks every size and horizon for smoke tests; tiny ops have no
    stored reference and skip the steady-state check.
    """
    if workload == "h2":
        return _h2_ops(random.Random(f"h2:{seed}"), workdir, tiny)
    if workload == "sim":
        # each part writes its own case files, some under the same names
        variant = seed % N_VARIANTS
        ops = []
        for part, make in (("step", _step_ops), ("noise", _noise_ops)):
            (workdir / part).mkdir()
            ops += make(random.Random(f"{part}:{variant}"), workdir / part, tiny)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def validate(ops: list[Op]) -> None:
    """Load every case the ops use; cases checked in closed form must be
    homogeneous."""
    closed_form = {op.case for op in ops if op.command in ("analyze", "sweep")}
    for case in sorted({op.case for op in ops}):
        net, comm, _, _ = piac.load_case(case)
        if case in closed_form:
            rep = piac.check_homogeneous(net, comm)
            if not rep.passed:
                raise ValueError(f"{case} is not homogeneous: {rep.reasons}")


def inputs_digest(ops: list[Op]) -> str:
    """sha256 over the ops' flags and case texts, independent of the directory."""
    h = hashlib.sha256()
    cases = sorted({op.case for op in ops})
    for case in cases:
        h.update(Path(case).name.encode() + b"\0" + Path(case).read_bytes())
    names = {c: Path(c).name for c in cases}
    for op in ops:
        argv = [names.get(a, Path(a).name if a == op.out else a) for a in op.argv]
        h.update(json.dumps([op.name, argv]).encode())
    return h.hexdigest()


def _save(workdir: Path, name: str, net, comm, gains, scenario=None) -> str:
    path = workdir / f"{name}.case"
    piac.save_case(path, net, comm, gains, scenario)
    return str(path)


def _bundled(name: str):
    return piac.load_case(piac.bundled_case_path(name))


def _ring(n: int, weights) -> tuple[PowerNetwork, CommunicationGraph]:
    nodes = tuple(Node(id=i, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0,
                       injection=0.0, price=1.0) for i in range(1, n + 1))
    edges = tuple((i, i % n + 1, k) for i, k in zip(range(1, n + 1), weights))
    return PowerNetwork(nodes=nodes, edges=edges), CommunicationGraph(weights=edges)


def _h2_ops(rng: random.Random, workdir: Path, tiny: bool) -> list[Op]:
    if tiny:
        net, comm = _ring(4, [2.5] * 4)
        gains = RING_GAINS
    else:
        net, comm, gains, _ = _bundled("homogeneous10")
    h10 = _save(workdir, "h10", net, comm, gains)
    b_diag = ",".join(f"{rng.uniform(0.5, 2.0):.3f}" for _ in range(net.n_nodes))
    ops = []
    for law in LAWS:
        for sel in SELECTORS:
            argv = ["analyze", "--case", h10, "--law", law, "--selector", sel]
            facts = {"selector": sel}
            if (law, sel) == ("dpiac", "omega"):
                argv += ["--analytic", "--limits"]
                facts["limits"] = True
            if (law, sel) == ("decpiac", "omega"):
                argv += ["--b-diag", b_diag]
                facts["b_diag"] = True
            ops.append(Op(f"analyze-h10-{law}-{sel}", "analyze", tuple(argv),
                          h10, law, facts=facts))
    for param, choices, points in (("k3", K3_CHOICES, 5), ("k1", K1_CHOICES, 3)):
        grid = ",".join(f"{v:g}" for v in sorted(rng.sample(choices, points)))
        argv = ("sweep", "--case", h10, "--law", "dpiac", "--param", param,
                "--grid", grid)
        ops.append(Op(f"sweep-h10-{param}", "sweep", argv, h10, "dpiac",
                      facts={"param": param}))
    for n in ((4, 5, 6) if tiny else RING_SIZES):
        net, comm = _ring(n, [round(rng.uniform(1.0, 3.0), 3) for _ in range(n)])
        ring = _save(workdir, f"ring{n}", net, comm, RING_GAINS)
        ops.append(Op(f"analyze-ring{n}-dpiac-omega", "analyze",
                      ("analyze", "--case", ring, "--law", "dpiac"), ring, "dpiac",
                      facts={"selector": "omega"}))
    return ops


def _step_ops(rng: random.Random, workdir: Path, tiny: bool) -> list[Op]:
    t_end, onset, t0 = (2.0, 0.5, 1.0) if tiny else (60.0, 5.0, 40.0)
    ops = []
    for case_name, bundled in (("h10", "homogeneous10"), ("ieee39", "ieee39-like")):
        net, comm, gains, _ = _bundled(bundled)
        # load steps on machines of the ring, on load buses of ieee39
        kind = NodeKind.MACHINE if case_name == "h10" else NodeKind.FREQ_DEPENDENT
        pool = [n.id for n in net.nodes if n.kind is kind]
        steps = {nid: round(rng.uniform(-0.15, -0.05), 3)
                 for nid in sorted(rng.sample(pool, 3))}
        scen = Scenario.step(steps, onset=onset, t_end=t_end, h=0.01)
        case = _save(workdir, case_name, net, comm, gains, scen)
        for law in LAWS:
            argv = ["simulate", "--case", case, "--law", law, "--kind", "step",
                    "--t0", f"{t0:g}"]
            out = None
            if (case_name, law) in STEP_OUT:
                out = str(workdir / f"{case_name}-{law}-step.csv")
                argv += ["--out", out]
            ops.append(Op(f"step-{case_name}-{law}", "simulate_step", tuple(argv),
                          case, law, out, facts={"steps": steps,
                                                 "steady_state": not tiny}))
    return ops


def _noise_ops(rng: random.Random, workdir: Path, tiny: bool) -> list[Op]:
    t_end, burn_in = (0.2, 0.1) if tiny else (NOISE_T_END, NOISE_BURN_IN)
    cases = {}
    for case_name, bundled in (("h10", "homogeneous10"), ("ieee39", "ieee39-like")):
        net, comm, gains, _ = _bundled(bundled)
        cases[case_name] = _save(workdir, case_name, net, comm, gains)
    ops = []
    for case_name, model, paths, writes in NOISE_OPS:
        paths = max(1, paths // 4) if tiny else paths
        pool, drawn = NOISE_BUSES[case_name]
        buses = sorted(rng.sample(list(pool), drawn))
        argv = ["simulate", "--case", cases[case_name], "--law", "dpiac",
                "--kind", "noise", "--model", model, "--t-end", f"{t_end:g}",
                "--h", f"{NOISE_H:g}", "--burn-in", f"{burn_in:g}",
                "--paths", str(paths), "--seed", str(rng.randrange(2 ** 31))]
        for nid in buses:
            argv += ["--sigma", f"{nid}:{NOISE_SIGMA:g}"]
        out = None
        if writes:
            out = str(workdir / f"{case_name}-{model}-noise.csv")
            argv += ["--out", out]
        path_steps = paths * round(t_end / NOISE_H)
        ops.append(Op(f"noise-{case_name}-{model}", "simulate_noise", tuple(argv),
                      cases[case_name], "dpiac", out,
                      facts={"paths": paths, "path_steps": path_steps}))
    return ops
