"""Correctness oracle for every benchmark op, run outside the timed region.

* ``analyze`` / ``sweep`` on homogeneous cases: every printed norm must match
  the public closed forms (``h2_gbpiac_analytic``, ``h2_dpiac_analytic``) to
  1e-8 relative, the tolerance of acceptance criteria 1-2. ``--b-diag`` bounds
  must bracket the numeric value; ``--limits`` must match ``limit_k1_infinity``
  and the gather-broadcast norm.
* step studies: S and C must match the stored reference to ``STEP_RTOL``, and
  a written trace must end at the optimal steady state (criterion 9).
* noise studies: E_S and E_C must match the stored reference for the fixed
  noise seed to ``NOISE_RTOL``.

The stored references (``reference.json``) come from ``make_reference.py``.
They guard against a later change moving results; the byte digests the
runner compares between passes only guard against nondeterminism.
"""

import dataclasses
import functools
import json
import re
from pathlib import Path

import numpy as np

import piac
from piac import OutputSelector
from workloads import N_VARIANTS, SIM_PARTS, inputs_digest

REFERENCE = Path(__file__).with_name("reference.json")
CLOSED_FORM_RTOL = 1e-8
# adaptive RK45 at rtol=1e-8: a rounding change may flip one step decision
STEP_RTOL = 1e-6
NOISE_RTOL = 1e-8

_STEP_LINE = re.compile(r"S=(\S+) C=(\S+) \(t0=\S+\)\n")
_NOISE_LINE = re.compile(r"E_S=(\S+) \(se \S*\) E_C=(\S+) \(se \S*\) "
                         r"paths=(\d+) burn_in=\S+\n")


def parse_step(stdout: str) -> dict:
    m = _STEP_LINE.fullmatch(stdout)
    if not m:
        raise ValueError(f"unexpected step output {stdout!r}")
    return {"S": float(m[1]), "C": float(m[2])}


def parse_noise(stdout: str) -> dict:
    m = _NOISE_LINE.fullmatch(stdout)
    if not m:
        raise ValueError(f"unexpected noise output {stdout!r}")
    return {"E_S": float(m[1]), "E_C": float(m[2]), "paths": int(m[3])}


def load_reference(workload: str, seed: int, ops) -> dict | None:
    """Stored outputs for the ops, or None for workloads checked in closed form.

    Raises ValueError when the stored inputs of a part differ from the
    generated ones, so a stale reference fails loudly instead of passing
    silently.
    """
    if workload == "h2":
        return None
    stored = json.loads(REFERENCE.read_text())
    reference = {}
    for part, command in SIM_PARTS.items():
        entry = stored[part][str(seed % N_VARIANTS)]
        if entry["inputs"] != inputs_digest([op for op in ops if op.command == command]):
            raise ValueError(f"reference.json is stale for {part} seed {seed}; "
                             "rerun make_reference.py")
        reference.update(entry["ops"])
    return reference


def check(op, stdout: str, out_text: str | None, reference: dict | None) -> str | None:
    """None when the op's output is correct, else the reason it is not."""
    try:
        if op.command == "analyze":
            return _check_analyze(op, stdout)
        if op.command == "sweep":
            return _check_sweep(op, stdout)
        if op.command == "simulate_step":
            return _check_step(op, stdout, out_text, reference)
        return _check_noise(op, stdout, out_text, reference)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc}"


@functools.lru_cache(maxsize=16)
def _homogeneous(case: str):
    net, comm, gains, _ = piac.load_case(case)
    rep = piac.check_homogeneous(net, comm)
    spectral = piac.spectral_decompose(piac.build_laplacian(net))
    return spectral, rep.m, rep.d, gains


def _closed_form(op, selector: str, gains) -> float:
    spectral, m, d, _ = _homogeneous(op.case)
    sel = OutputSelector.from_token(selector)
    if op.law == "gbpiac":
        return piac.h2_gbpiac_analytic(spectral.n, m, d, gains.k1, sel).value
    k3 = 0.0 if op.law == "decpiac" else gains.k3
    return piac.h2_dpiac_analytic(spectral, m, d, gains.k1, k3, sel).value


def _near(what: str, got: float, want: float, rtol: float,
          floor: float = 0.0) -> str | None:
    if abs(got - want) <= rtol * max(floor, abs(want)):
        return None
    return f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g})"


def _closed(what: str, got: float, want: float) -> str | None:
    # the relative gap of acceptance criteria 1-2: |got - want| / max(1, |want|)
    return _near(what, got, want, CLOSED_FORM_RTOL, floor=1.0)


def _csv_rows(text: str) -> list[dict]:
    header, *lines = text.strip().split("\n")
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


def _check_analyze(op, stdout: str) -> str | None:
    (row,) = _csv_rows(stdout)
    numeric = float(row["numeric"])
    _, _, _, gains = _homogeneous(op.case)
    if op.facts.get("b_diag"):
        lo, hi = float(row["bound_lo"]), float(row["bound_hi"])
        slack = 1e-11 * max(1.0, abs(numeric))
        if not lo - slack <= numeric <= hi + slack:
            return f"numeric {numeric!r} outside the --b-diag bounds [{lo!r}, {hi!r}]"
        return None
    err = _closed("numeric", numeric, _closed_form(op, op.facts["selector"], gains))
    if err or not op.facts.get("limits"):
        return err
    spectral, m, d, _ = _homogeneous(op.case)
    return (_closed("limit_k1_inf", float(row["limit_k1_inf"]),
                    piac.limit_k1_infinity(spectral, m, d, gains.k3))
            or _closed("limit_k3_inf", float(row["limit_k3_inf"]),
                       piac.h2_gbpiac_analytic(spectral.n, m, d, gains.k1).value))


def _check_sweep(op, stdout: str) -> str | None:
    param = op.facts["param"]
    base = _homogeneous(op.case)[3]
    rows = _csv_rows(stdout)
    if not rows:
        return "empty sweep"
    for row in rows:
        v = float(row[param])
        gains = (piac.GainSchedule(k1=v, k2=4.0 * v, k3=base.k3) if param == "k1"
                 else piac.GainSchedule(k1=base.k1, k2=base.k2, k3=v))
        for column, sel in (("omega_norm", "omega"), ("u_norm", "u"),
                            ("spread_norm", "spread")):
            err = _closed(f"{param}={v:g} {column}", float(row[column]),
                          _closed_form(op, sel, gains))
            if err:
                return err
    return None


def _check_step(op, stdout, out_text, reference) -> str | None:
    got = parse_step(stdout)
    if reference is not None:
        want = reference[op.name]
        err = (_near("S", got["S"], want["S"], STEP_RTOL)
               or _near("C", got["C"], want["C"], STEP_RTOL))
        if err:
            return err
    if out_text is None or not op.facts["steady_state"]:
        return None
    return _steady_state(op, out_text)


def _steady_state(op, out_text: str) -> str | None:
    """Criterion 9 on the last recorded instant of a written trace."""
    net, _, _, _ = piac.load_case(op.case)
    header = out_text.split("\n", 1)[0].split(",")
    tail = out_text.rstrip("\n").rsplit("\n", net.n_nodes)[1:]
    last = [dict(zip(header, line.split(","))) for line in tail]
    if len({r["t"] for r in last}) != 1:
        return "trace does not end with one full instant"
    u = {int(r["node"]): float(r["u"]) for r in last if r["u"]}
    u_end = np.array([u[nid] for nid in net.controller_ids])
    p_post = net.injections.copy()
    for nid, dp in op.facts["steps"].items():
        p_post[net.index_of[nid]] += dp
    balance = abs(u_end.sum() + p_post.sum())
    if balance > 1e-4:
        return f"final inputs leave |sum u + sum P| = {balance:.2e}"
    if op.law in ("gbpiac", "dpiac"):
        stepped = piac.PowerNetwork(
            nodes=tuple(dataclasses.replace(n, injection=float(p))
                        for n, p in zip(net.nodes, p_post)),
            edges=net.edges)
        gap = float(np.abs(u_end - piac.optimal_dispatch(stepped)).max())
        if gap > 1e-3:
            return f"final inputs miss the optimal dispatch by {gap:.2e}"
    return None


def _check_noise(op, stdout, out_text, reference) -> str | None:
    got = parse_noise(stdout)
    if got["paths"] != op.facts["paths"]:
        return f"ran {got['paths']} paths, asked for {op.facts['paths']}"
    if reference is not None:
        want = reference[op.name]
        err = (_near("E_S", got["E_S"], want["E_S"], NOISE_RTOL)
               or _near("E_C", got["E_C"], want["E_C"], NOISE_RTOL))
        if err:
            return err
    if out_text is not None:
        seen = {row["path"] for row in _csv_rows(out_text)}
        if seen != {str(p) for p in range(op.facts["paths"])}:
            return f"ensemble file holds paths {sorted(seen)}"
    return None
