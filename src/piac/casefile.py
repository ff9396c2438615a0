"""Line-oriented case files.

A case bundles the network, the optional communication graph, control
gains, and an optional disturbance scenario. The grammar is deliberately
flat so files diff well::

    # comments start with '#', blank lines are ignored
    [nodes]
    # <id> <kind> key=value...      kind: machine | freq | passive (NodeKind)
    # machine: M=, D=, alpha= required; freq: D=, alpha=; passive: none
    # optional on any node: P= (default 0); V= is accepted only as 1
    1 machine M=1 D=1 P=0.1 alpha=1 V=1
    [edges]
    # <i> <j> K=<susceptance>      (the effective one, voltages folded in)
    1 2 K=2.0
    [comm]
    # <i> <j> l=<weight>           (section optional)
    1 2 l=2.0
    [gains]                        # GainSchedule's fields (section optional)
    k1=0.5
    k2=2.0
    k3=1.0                         # optional, default 0
    [scenario]                     # Scenario's fields (section optional)
    kind=step                      # step | noise (ScenarioKind)
    t_end=60                       # t_end, h, onset, paths, burn_in:
    h=0.01                         #   default per kind in scenario.DEFAULTS
    onset=5                        # step only
    step=1:-0.1                    # step only (steps), repeatable, each node once
    sigma=1:0.002                  # noise only, repeatable, each node once;
                                   # machine buses
    paths=20                       # noise only, an integer
    burn_in=50                     # noise only
    seed=42                        # noise only, an integer

The reader and the writer walk one key table per section, in file order:
the node keys set :class:`Node`'s ``inertia``, ``damping``, ``injection``
and ``price``, and the ``[gains]`` and ``[scenario]`` keys are the fields
of :class:`GainSchedule` and :class:`Scenario`, each read as its field's
type says: a node map as repeatable ``NODE:VALUE`` entries, an ``int`` as
an integer, a ``float`` as a finite number.

``save_case`` writes the canonical form: fixed section order, nodes sorted
by id, edges sorted by pair, floats via ``repr`` so loading a saved file
reproduces the exact same objects. It writes ``V=1.0`` on every node.

A node named twice in ``step=`` or ``sigma=`` lines, an unknown ``kind=``
and a number that does not parse are refused at their line, a missing
``kind=`` at the ``[scenario]`` header; :class:`Scenario` refuses the rest,
such as a ``t_end`` off the step grid or the other kind's fields.
"""

import math
import os
from dataclasses import MISSING, fields
from typing import get_args, get_origin

from .controllers import GainSchedule
from .errors import CaseFormatError, DisconnectedNetwork
from .netmodel import CommunicationGraph, Node, NodeKind, PowerNetwork
from .scenario import Scenario, ScenarioKind

__all__ = ["load_case", "save_case", "loads_case", "dumps_case", "bundled_case_path"]

_SECTIONS = ("nodes", "edges", "comm", "gains", "scenario")
_NODE_KINDS = [kind.value for kind in NodeKind]
# the node keys and the Node fields they set; V= is read only to refuse a
# value other than 1
_NODE_KEYS = {"M": "inertia", "D": "damping", "P": "injection", "alpha": "price"}
# the [gains] keys: GainSchedule's fields, each with whether a file must give it
_GAINS = {f.name: f.default is MISSING for f in fields(GainSchedule)}
# the [scenario] keys: Scenario's fields, step= for steps; the kind is kept
# as its token until the file is read
_SCENARIO = {"step" if f.name == "steps" else f.name: f for f in fields(Scenario)}
_SCENARIO_KINDS = [kind.value for kind in ScenarioKind]


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


def _by_pair(edges) -> list[tuple[int, int, float]]:
    """Undirected ``(i, j, w)`` edges as (low, high, w), sorted by pair."""
    return sorted((min(i, j), max(i, j), w) for i, j, w in edges)


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
    scen_kv: dict[str, str | float | int | dict[int, float]] = {}
    # (line, key, node) of every step=/sigma= entry, checked against the
    # nodes once every section is read
    node_refs: list[tuple[int, str, int]] = []
    # the line of each section's header
    saw: dict[str, int] = {}
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
            saw[section] = lineno
            continue
        if section is None:
            raise CaseFormatError("content before the first section header", path, lineno)
        toks = line.split()
        if section == "nodes":
            if len(toks) < 2:
                raise CaseFormatError("node line needs '<id> <kind> ...'", path, lineno)
            nid = _parse_int(toks[0], "node id", path, lineno)
            if toks[1] not in _NODE_KINDS:
                raise CaseFormatError(
                    f"unknown node kind {toks[1]!r} ({'|'.join(_NODE_KINDS)})", path, lineno)
            kv = _kv(toks[2:], path, lineno)
            for key in kv:
                if key not in _NODE_KEYS and key != "V":
                    raise CaseFormatError(f"unknown node field {key!r}", path, lineno)
            if "V" in kv and _parse_float(kv["V"], "field V", path, lineno) != 1.0:
                raise CaseFormatError(
                    f"field V: {kv['V']!r} is not read; only V=1 is accepted, as "
                    "the line's K= is already the effective susceptance", path, lineno)
            values = {name: _parse_float(kv[key], f"field {key}", path, lineno)
                      for key, name in _NODE_KEYS.items() if key in kv}
            try:
                nodes.append(Node(id=nid, kind=NodeKind(toks[1]), **values))
            except ValueError as exc:
                raise CaseFormatError(str(exc), path, lineno) from None
        elif section in ("edges", "comm"):
            field, what = ("K", "edge") if section == "edges" else ("l", "comm")
            if len(toks) != 3:
                raise CaseFormatError(
                    f"{what} line needs '<i> <j> {field}=<value>'", path, lineno)
            i = _parse_int(toks[0], "node id", path, lineno)
            j = _parse_int(toks[1], "node id", path, lineno)
            kv = _kv(toks[2:], path, lineno)
            if set(kv) != {field}:
                raise CaseFormatError(f"missing field {field!r}", path, lineno)
            w = _parse_float(kv[field], f"field {field}", path, lineno)
            (edges if section == "edges" else comm_edges).append((i, j, w))
        elif section == "gains":
            for key, val in _kv(toks, path, lineno).items():
                if key not in _GAINS:
                    raise CaseFormatError(f"unknown gain {key!r}", path, lineno)
                if key in gains_kv:
                    raise CaseFormatError(f"duplicate gain {key!r}", path, lineno)
                gains_kv[key] = _parse_float(val, f"gain {key}", path, lineno)
        elif section == "scenario":
            for key, val in _kv(toks, path, lineno).items():
                if key not in _SCENARIO:
                    raise CaseFormatError(f"unknown scenario key {key!r}", path, lineno)
                name, tp = _SCENARIO[key].name, _SCENARIO[key].type
                if name == "kind" and val not in _SCENARIO_KINDS:
                    raise CaseFormatError(f"unknown scenario kind {val!r}", path, lineno)
                if get_origin(tp) is dict:
                    values = scen_kv.setdefault(name, {})
                    nid, _, v = val.partition(":")
                    nid = _parse_int(nid, f"{key} node", path, lineno)
                    if nid in values:
                        raise CaseFormatError(f"{key} names node {nid} twice", path, lineno)
                    node_refs.append((lineno, key, nid))
                    values[nid] = _parse_float(
                        v, "step size" if key == "step" else key, path, lineno)
                elif name in scen_kv:
                    raise CaseFormatError(f"duplicate scenario key {key!r}", path, lineno)
                elif int in get_args(tp):
                    scen_kv[name] = _parse_int(val, f"scenario {key}", path, lineno)
                elif float in get_args(tp):
                    scen_kv[name] = _parse_float(val, f"scenario {key}", path, lineno)
                else:
                    scen_kv[name] = val

    if "nodes" not in saw:
        raise CaseFormatError("missing [nodes] section", path)
    if "edges" not in saw:
        raise CaseFormatError("missing [edges] section", path)
    # canonical in-memory form: nodes by id, undirected pairs (low, high) sorted,
    # so loading a saved case reproduces identical objects
    nodes.sort(key=lambda n: n.id)
    edges, comm_edges = _by_pair(edges), _by_pair(comm_edges)
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
        missing = {key for key, required in _GAINS.items() if required} - set(gains_kv)
        if missing:
            raise CaseFormatError(f"[gains] missing {sorted(missing)}", path)
        gains = GainSchedule(**gains_kv)

    scenario = None
    if "scenario" in saw:
        if "kind" not in scen_kv:
            raise CaseFormatError("[scenario] missing kind=", path, saw["scenario"])
        kind_tok = scen_kv.pop("kind")
        for lineno, key, nid in node_refs:
            if nid not in net.index_of:
                raise CaseFormatError(f"{key} references unknown node {nid}",
                                      path, lineno)
        # node maps in node order, as the writer lists them
        scen_kv = {name: dict(sorted(v.items())) if isinstance(v, dict) else v
                   for name, v in scen_kv.items()}
        try:
            scenario = Scenario(kind=ScenarioKind(kind_tok), **scen_kv)
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
        toks += [f"{key}={getattr(node, name)!r}" for key, name in _NODE_KEYS.items()
                 if getattr(node, name) is not None]
        toks.append("V=1.0")
        out.append(" ".join(toks))
    out.append("[edges]")
    out += [f"{i} {j} K={k!r}" for i, j, k in _by_pair(net.edges)]
    if comm is not None:
        out.append("[comm]")
        out += [f"{i} {j} l={w!r}" for i, j, w in _by_pair(comm.weights)]
    if gains is not None:
        out.append("[gains]")
        out += [f"{key}={getattr(gains, key)!r}" for key in _GAINS]
    if scenario is not None:
        out.append("[scenario]")
        for key, f in _SCENARIO.items():
            value = getattr(scenario, f.name)
            if isinstance(value, dict):
                out += [f"{key}={nid}:{v!r}" for nid, v in value.items()]
            elif isinstance(value, ScenarioKind):
                out.append(f"{key}={value.value}")
            elif value is not None:
                out.append(f"{key}={value!r}")
    return "\n".join(out) + "\n"


def save_case(path, net: PowerNetwork, comm: CommunicationGraph | None = None,
              gains: GainSchedule | None = None,
              scenario: Scenario | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_case(net, comm, gains, scenario))
