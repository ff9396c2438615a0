"""Line-oriented case files.

A case bundles the network, the optional communication graph, control
gains, and an optional disturbance scenario. The grammar is deliberately
flat so files diff well::

    # comments start with '#', blank lines are ignored
    [nodes]
    # <id> <kind> key=value...      kind: machine | freq | passive
    # machine: M=, D=, alpha= required; freq: D=, alpha=; passive: none
    # optional on any node: P= (default 0), V= (default 1)
    1 machine M=1 D=1 P=0.1 alpha=1 V=1
    [edges]
    # <i> <j> K=<susceptance>
    1 2 K=2.0
    [comm]
    # <i> <j> l=<weight>           (section optional)
    1 2 l=2.0
    [gains]
    k1=0.5
    k2=2.0
    k3=1.0
    [scenario]
    kind=step                      # step | noise   (section optional)
    t_end=60                       # default 60 (step) or 250 (noise)
    h=0.01                         # default 0.01 (step) or 1e-3 (noise)
    onset=5                        # step only
    step=1:-0.1                    # step only, repeatable
    sigma=2:0.002                  # noise only, repeatable
    paths=20                       # noise only
    burn_in=50                     # noise only
    seed=42                        # noise only

``save_case`` writes the canonical form: fixed section order, nodes sorted
by id, edges sorted by pair, floats via ``repr`` so loading a saved file
reproduces the exact same objects.
"""

import math
import os

from .controllers import GainSchedule
from .errors import CaseFormatError, DisconnectedNetwork
from .netmodel import CommunicationGraph, Node, NodeKind, PowerNetwork
from .scenario import DEFAULTS, Scenario, ScenarioKind

__all__ = ["load_case", "save_case", "loads_case", "dumps_case", "bundled_case_path"]

_KINDS = {"machine": NodeKind.MACHINE, "freq": NodeKind.FREQ_DEPENDENT,
          "passive": NodeKind.PASSIVE}
_SECTIONS = ("nodes", "edges", "comm", "gains", "scenario")


def bundled_case_path(name: str) -> str:
    """Absolute path of a case shipped with the package (e.g. ``homogeneous10``)."""
    here = os.path.dirname(__file__)
    path = os.path.join(here, "cases", name + ".case")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no bundled case named {name!r}")
    return path


def _parse_float(tok: str, what: str, path, lineno) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise CaseFormatError(f"{what}: not a number: {tok!r}", path, lineno) from None
    if not math.isfinite(value):
        raise CaseFormatError(f"{what}: not a finite number: {tok!r}", path, lineno)
    return value


def _parse_int(tok: str, what: str, path, lineno) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CaseFormatError(f"{what}: not an integer: {tok!r}", path, lineno) from None


def _kv(tokens, path, lineno) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise CaseFormatError(f"expected key=value, got {tok!r}", path, lineno)
        key, val = tok.split("=", 1)
        if key in out:
            raise CaseFormatError(f"duplicate key {key!r}", path, lineno)
        out[key] = val
    return out


def loads_case(text: str, path: str = "<string>"):
    """Parse case text; see :func:`load_case`."""
    nodes: list[Node] = []
    edges: list[tuple[int, int, float]] = []
    comm_edges: list[tuple[int, int, float]] = []
    gains_kv: dict[str, float] = {}
    scen_kv: dict[str, str] = {}
    steps: dict[int, float] = {}
    sigma: dict[int, float] = {}
    saw: set[str] = set()
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise CaseFormatError("unterminated section header", path, lineno)
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise CaseFormatError(f"unknown section [{section}]", path, lineno)
            if section in saw:
                raise CaseFormatError(f"duplicate section [{section}]", path, lineno)
            saw.add(section)
            continue
        if section is None:
            raise CaseFormatError("content before the first section header", path, lineno)
        toks = line.split()
        if section == "nodes":
            if len(toks) < 2:
                raise CaseFormatError("node line needs '<id> <kind> ...'", path, lineno)
            nid = _parse_int(toks[0], "node id", path, lineno)
            if toks[1] not in _KINDS:
                raise CaseFormatError(
                    f"unknown node kind {toks[1]!r} (machine|freq|passive)", path, lineno)
            kv = _kv(toks[2:], path, lineno)
            allowed = {"M", "D", "P", "alpha", "V"}
            for key in kv:
                if key not in allowed:
                    raise CaseFormatError(f"unknown node field {key!r}", path, lineno)

            def fget(key, default=None):
                return (_parse_float(kv[key], f"field {key}", path, lineno)
                        if key in kv else default)

            try:
                nodes.append(Node(id=nid, kind=_KINDS[toks[1]],
                                  inertia=fget("M"), damping=fget("D"),
                                  injection=fget("P", 0.0), price=fget("alpha"),
                                  voltage=fget("V", 1.0)))
            except ValueError as exc:
                raise CaseFormatError(str(exc), path, lineno) from None
        elif section in ("edges", "comm"):
            field = "K" if section == "edges" else "l"
            if len(toks) != 3:
                raise CaseFormatError(
                    f"{section[:-1]} line needs '<i> <j> {field}=<value>'", path, lineno)
            i = _parse_int(toks[0], "node id", path, lineno)
            j = _parse_int(toks[1], "node id", path, lineno)
            kv = _kv(toks[2:], path, lineno)
            if set(kv) != {field}:
                raise CaseFormatError(f"missing field {field!r}", path, lineno)
            w = _parse_float(kv[field], f"field {field}", path, lineno)
            (edges if section == "edges" else comm_edges).append((i, j, w))
        elif section == "gains":
            kv = _kv(toks, path, lineno)
            for key, val in kv.items():
                if key not in ("k1", "k2", "k3"):
                    raise CaseFormatError(f"unknown gain {key!r}", path, lineno)
                if key in gains_kv:
                    raise CaseFormatError(f"duplicate gain {key!r}", path, lineno)
                gains_kv[key] = _parse_float(val, f"gain {key}", path, lineno)
        elif section == "scenario":
            kv = _kv(toks, path, lineno)
            for key, val in kv.items():
                if key == "step":
                    nid, _, dp = val.partition(":")
                    steps[_parse_int(nid, "step node", path, lineno)] = \
                        _parse_float(dp, "step size", path, lineno)
                elif key == "sigma":
                    nid, _, s = val.partition(":")
                    sigma[_parse_int(nid, "sigma node", path, lineno)] = \
                        _parse_float(s, "sigma", path, lineno)
                elif key in ("kind", "t_end", "h", "onset", "paths", "burn_in", "seed"):
                    if key in scen_kv:
                        raise CaseFormatError(f"duplicate scenario key {key!r}", path, lineno)
                    scen_kv[key] = val
                else:
                    raise CaseFormatError(f"unknown scenario key {key!r}", path, lineno)

    if "nodes" not in saw:
        raise CaseFormatError("missing [nodes] section", path)
    if "edges" not in saw:
        raise CaseFormatError("missing [edges] section", path)
    # canonical in-memory form: nodes by id, undirected pairs (low, high) sorted,
    # so loading a saved case reproduces identical objects
    nodes.sort(key=lambda n: n.id)
    edges = sorted((min(i, j), max(i, j), k) for i, j, k in edges)
    comm_edges = sorted((min(i, j), max(i, j), w) for i, j, w in comm_edges)
    try:
        net = PowerNetwork(nodes=tuple(nodes), edges=tuple(edges))
    except ValueError as exc:
        raise CaseFormatError(str(exc), path) from None
    if not net.is_connected():
        raise DisconnectedNetwork(f"{path}: power graph is not connected")

    comm = None
    if "comm" in saw:
        controllers = set(net.controller_ids)
        for i, j, _ in comm_edges:
            for nid in (i, j):
                if nid not in controllers:
                    raise CaseFormatError(
                        f"[comm] edge ({i},{j}) touches node {nid}, which has "
                        "no controller", path)
        try:
            comm = CommunicationGraph(weights=tuple(comm_edges))
        except ValueError as exc:
            raise CaseFormatError(str(exc), path) from None
        if not comm.is_connected_over(net.controller_ids):
            raise DisconnectedNetwork(
                f"{path}: communication graph does not connect the controller set")

    gains = None
    if "gains" in saw:
        missing = {"k1", "k2"} - set(gains_kv)
        if missing:
            raise CaseFormatError(f"[gains] missing {sorted(missing)}", path)
        gains = GainSchedule(k1=gains_kv["k1"], k2=gains_kv["k2"],
                             k3=gains_kv.get("k3", 0.0))

    scenario = None
    if "scenario" in saw:
        if "kind" not in scen_kv:
            raise CaseFormatError("[scenario] missing kind=", path)
        kind_tok = scen_kv["kind"]
        if kind_tok not in ("step", "noise"):
            raise CaseFormatError(f"unknown scenario kind {kind_tok!r}", path)
        known = set(net.ids)
        for nid in list(steps) + list(sigma):
            if nid not in known:
                raise CaseFormatError(f"scenario references unknown node {nid}", path)
        kind = ScenarioKind(kind_tok)
        try:
            scenario = Scenario(
                kind=kind,
                t_end=float(scen_kv.get("t_end", DEFAULTS[kind]["t_end"])),
                h=float(scen_kv.get("h", DEFAULTS[kind]["h"])),
                onset=float(scen_kv["onset"]) if "onset" in scen_kv else None,
                steps=dict(sorted(steps.items())),
                sigma=dict(sorted(sigma.items())),
                paths=int(scen_kv["paths"]) if "paths" in scen_kv else None,
                burn_in=float(scen_kv["burn_in"]) if "burn_in" in scen_kv else None,
                seed=int(scen_kv["seed"]) if "seed" in scen_kv else None,
            )
        except (ValueError, TypeError) as exc:
            raise CaseFormatError(f"[scenario]: {exc}", path) from None

    return net, comm, gains, scenario


def load_case(path):
    """Load a case file.

    Returns ``(PowerNetwork, CommunicationGraph | None, GainSchedule | None,
    Scenario | None)``. Format violations raise :class:`CaseFormatError`
    with file and line; a disconnected power graph (or a communication graph
    that fails to connect the controller set) raises
    :class:`DisconnectedNetwork`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return loads_case(fh.read(), path=str(path))


def dumps_case(net: PowerNetwork, comm: CommunicationGraph | None = None,
               gains: GainSchedule | None = None,
               scenario: Scenario | None = None) -> str:
    """Serialize to canonical text; ``loads_case`` of the result round-trips."""
    out = ["[nodes]"]
    for node in sorted(net.nodes, key=lambda n: n.id):
        toks = [str(node.id), node.kind.value]
        if node.inertia is not None:
            toks.append(f"M={node.inertia!r}")
        if node.damping is not None:
            toks.append(f"D={node.damping!r}")
        toks.append(f"P={node.injection!r}")
        if node.price is not None:
            toks.append(f"alpha={node.price!r}")
        toks.append(f"V={node.voltage!r}")
        out.append(" ".join(toks))
    out.append("[edges]")
    for i, j, k in sorted(net.edges, key=lambda e: (min(e[0], e[1]), max(e[0], e[1]))):
        a, b = (i, j) if i < j else (j, i)
        out.append(f"{a} {b} K={k!r}")
    if comm is not None:
        out.append("[comm]")
        for i, j, w in sorted(comm.weights, key=lambda e: (min(e[0], e[1]), max(e[0], e[1]))):
            a, b = (i, j) if i < j else (j, i)
            out.append(f"{a} {b} l={w!r}")
    if gains is not None:
        out.append("[gains]")
        out.append(f"k1={gains.k1!r}")
        out.append(f"k2={gains.k2!r}")
        out.append(f"k3={gains.k3!r}")
    if scenario is not None:
        out.append("[scenario]")
        out.append(f"kind={scenario.kind.value}")
        out.append(f"t_end={scenario.t_end!r}")
        out.append(f"h={scenario.h!r}")
        if scenario.onset is not None:
            out.append(f"onset={scenario.onset!r}")
        for nid, dp in scenario.steps.items():
            out.append(f"step={nid}:{dp!r}")
        for nid, s in scenario.sigma.items():
            out.append(f"sigma={nid}:{s!r}")
        if scenario.paths is not None:
            out.append(f"paths={scenario.paths}")
        if scenario.burn_in is not None:
            out.append(f"burn_in={scenario.burn_in!r}")
        if scenario.seed is not None:
            out.append(f"seed={scenario.seed}")
    return "\n".join(out) + "\n"


def save_case(path, net: PowerNetwork, comm: CommunicationGraph | None = None,
              gains: GainSchedule | None = None,
              scenario: Scenario | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_case(net, comm, gains, scenario))
