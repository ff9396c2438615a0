"""Round-trip a case through the file format and drive the command-line
front end in-process.

Run: python demos/07_case_files_and_cli.py
"""

import tempfile
from pathlib import Path

from piac import (CommunicationGraph, GainSchedule, Node, NodeKind,
                  PowerNetwork, Scenario, dumps_case, load_case, save_case)
from piac.cli import main

# Assemble a case programmatically: three machines, a triangle grid, a
# matching communication graph, gains and a step scenario. Edges in
# canonical order (low-high pairs, sorted) so the file round-trips to the
# identical objects.
nodes = tuple(Node(id=i, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0,
                   price=1.0) for i in (1, 2, 3))
edges = ((1, 2, 2.0), (1, 3, 2.0), (2, 3, 2.0))
net = PowerNetwork(nodes=nodes, edges=edges)
comm = CommunicationGraph(weights=edges)
gains = GainSchedule.analytic(k1=1.0, k3=2.0)
scen = Scenario.step({2: -0.15}, onset=2.0, t_end=50.0, h=0.01)

print("canonical serialization:\n")
print(dumps_case(net, comm, gains, scen))

with tempfile.TemporaryDirectory(prefix="piac-demo-") as tmp:
    workdir = Path(tmp)
    case = workdir / "triangle.case"
    save_case(case, net, comm, gains, scen)
    assert load_case(case) == (net, comm, gains, scen)   # exact round trip
    print(f"saved and re-loaded identically: {case}\n")

    # The same operations are scriptable through the CLI. main() returns the
    # exit code; nonzero codes classify the failure (format, connectivity,
    # gains, analysis, numerics).
    print("$ piac validate")
    assert main(["validate", "--case", str(case)]) == 0

    print("\n$ piac analyze --law dpiac --selector omega --limits")
    assert main(["analyze", "--case", str(case), "--law", "dpiac",
                 "--selector", "omega", "--limits"]) == 0

    print("\n$ piac sweep --param k3 --grid 1,4,16,64")
    assert main(["sweep", "--case", str(case), "--law", "dpiac",
                 "--param", "k3", "--grid", "1,4,16,64"]) == 0

    print("\n$ piac simulate  (writes the trace, prints the metrics)")
    trace_file = workdir / "trace.csv"
    assert main(["simulate", "--case", str(case), "--law", "dpiac",
                 "--out", str(trace_file)]) == 0
    with open(trace_file) as fh:
        print(f"trace rows: {sum(1 for _ in fh) - 1}")
