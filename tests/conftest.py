import numpy as np
import pytest

from piac import (CommunicationGraph, GainSchedule, Node, NodeKind, PowerNetwork,
                  bundled_case_path, load_case)


def make_machine_net(n, m=1.0, d=1.0, alpha=1.0, edges=None, k=1.0,
                     injections=None):
    """Machine-only network; scalar parameters broadcast to every node."""
    m = np.broadcast_to(np.asarray(m, dtype=float), (n,))
    d = np.broadcast_to(np.asarray(d, dtype=float), (n,))
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
    injections = np.zeros(n) if injections is None else np.asarray(injections, float)
    nodes = tuple(Node(id=i + 1, kind=NodeKind.MACHINE, inertia=float(m[i]),
                       damping=float(d[i]), injection=float(injections[i]),
                       price=float(alpha[i]))
                  for i in range(n))
    if edges is None:
        edges = [(i + 1, i + 2, k) for i in range(n - 1)]   # path graph
    net = PowerNetwork(nodes=nodes, edges=tuple(edges))
    comm = CommunicationGraph(weights=tuple(edges))
    return net, comm


def random_homogeneous(rng, n=None, k_range=(0.1, 10.0)):
    """Random connected homogeneous machine network, comm mirroring the grid."""
    if n is None:
        n = int(rng.integers(2, 11))
    m, d = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2))
    edges = []
    for i in range(2, n + 1):                      # random spanning tree
        j = int(rng.integers(1, i))
        edges.append((j, i, float(np.exp(rng.uniform(np.log(k_range[0]),
                                                     np.log(k_range[1]))))))
    present = {(a, b) for a, b, _ in edges}
    for a in range(1, n + 1):                      # sprinkle extra edges
        for b in range(a + 1, n + 1):
            if (a, b) not in present and rng.random() < 0.2:
                edges.append((a, b, float(np.exp(rng.uniform(
                    np.log(k_range[0]), np.log(k_range[1]))))))
    net, comm = make_machine_net(n, m=m, d=d, edges=edges)
    return net, comm, float(m), float(d)


def ring_net(n, k=1.0, m=1.0, d=1.0, alpha=1.0):
    if n == 2:
        edges = [(1, 2, k)]
    else:
        edges = [(i, i % n + 1, k) for i in range(1, n + 1)]
    return make_machine_net(n, m=m, d=d, alpha=alpha, edges=edges)


def machine_only_case(case):
    """The bundled homogeneous10 network, or a four-machine ring with
    heterogeneous inertias, dampings and prices ("heterogeneous-prices")."""
    if case == "homogeneous10":
        net, comm, _, _ = load_case(bundled_case_path(case))
        return net, comm
    return make_machine_net(4, m=[1.0, 2.0, 0.5, 1.5], d=[1.0, 0.3, 2.0, 1.0],
                            alpha=[1.0, 3.0, 0.5, 2.0],
                            edges=[(1, 2, 1.0), (2, 3, 2.0), (3, 4, 0.5),
                                   (1, 4, 1.5)])


def machine_bus_input(net):
    """Disturbance matrix with unit noise on the machine buses only."""
    return np.diag([float(node.kind is NodeKind.MACHINE) for node in net.nodes])


@pytest.fixture
def gains_unit():
    return GainSchedule.analytic(1.0, 1.0)
