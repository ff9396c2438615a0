import math

import numpy as np
import pytest

from piac import (CommunicationGraph, DisconnectedNetwork, Node, NodeKind,
                  PowerNetwork, ShapeError, build_laplacian, check_homogeneous,
                  load_case, bundled_case_path, spectral_decompose)
from conftest import make_machine_net, random_homogeneous, ring_net


def test_laplacian_two_nodes():
    net, _ = make_machine_net(2, edges=[(1, 2, 1.0)])
    L = build_laplacian(net)
    assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_triangle():
    net, _ = ring_net(3)
    L = build_laplacian(net)
    assert np.allclose(np.diag(L), 2.0)
    off = L - np.diag(np.diag(L))
    assert np.allclose(off[off != 0], -1.0)


def test_laplacian_path_eigenvalues():
    # characteristic polynomial of the 3-path Laplacian factors as
    # x (x - 1) (x - 3)
    net, _ = make_machine_net(3, edges=[(1, 2, 1.0), (2, 3, 1.0)])
    spec = spectral_decompose(build_laplacian(net))
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)


def test_laplacian_rejects_disconnected():
    nodes = tuple(Node(id=i, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0,
                       price=1.0) for i in (1, 2, 3, 4))
    net = PowerNetwork(nodes=nodes, edges=((1, 2, 1.0), (3, 4, 1.0)))
    with pytest.raises(DisconnectedNetwork):
        build_laplacian(net)


def test_spectral_two_nodes():
    spec = spectral_decompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.array_equal(spec.eigenvalues, [0.0, 2.0])
    assert np.allclose(spec.modal_matrix[:, 0], 1.0 / math.sqrt(2))


def test_spectral_single_node():
    spec = spectral_decompose(np.zeros((1, 1)))
    assert np.array_equal(spec.eigenvalues, [0.0])
    assert np.array_equal(spec.modal_matrix, [[1.0]])


def test_spectral_triangle():
    net, _ = ring_net(3)
    spec = spectral_decompose(build_laplacian(net))
    assert np.allclose(spec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_spectral_rejects_nonsymmetric():
    with pytest.raises(ShapeError):
        spectral_decompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_spectral_invariants_random():
    rng = np.random.default_rng(42)
    for _ in range(15):
        net, _, _, _ = random_homogeneous(rng)
        L = build_laplacian(net)
        spec = spectral_decompose(L)
        n = net.n_nodes
        scale = np.abs(L).max()
        assert np.abs(L @ np.ones(n)).max() <= 1e-12 * scale
        Q, lam = spec.modal_matrix, spec.eigenvalues
        assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-12
        assert np.abs(Q.T @ L @ Q - np.diag(lam)).max() <= 1e-10 * scale
        assert lam[0] == 0.0
        assert spec.algebraic_connectivity > 0
        assert np.allclose(Q[:, 0], 1.0 / math.sqrt(n))


def test_spectral_sign_convention_deterministic():
    net, _ = ring_net(6, k=1.7)
    L = build_laplacian(net)
    a = spectral_decompose(L)
    b = spectral_decompose(L.copy())
    assert np.array_equal(a.modal_matrix, b.modal_matrix)
    for col in a.modal_matrix.T:
        nz = col[np.abs(col) > 1e-12 * np.abs(col).max()]
        assert nz[0] > 0


def test_node_invariants():
    with pytest.raises(ValueError):
        Node(id=1, kind=NodeKind.MACHINE, inertia=-1.0, damping=1.0, price=1.0)
    with pytest.raises(ValueError):
        Node(id=1, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0)  # no price
    with pytest.raises(ValueError):
        Node(id=1, kind=NodeKind.FREQ_DEPENDENT, inertia=1.0, damping=1.0, price=1.0)
    with pytest.raises(ValueError):
        Node(id=1, kind=NodeKind.PASSIVE, damping=1.0)
    Node(id=1, kind=NodeKind.PASSIVE, injection=-0.5)  # fine


def test_network_invariants():
    good = Node(id=1, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0, price=1.0)
    other = Node(id=2, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0, price=1.0)
    with pytest.raises(ValueError):
        PowerNetwork(nodes=(good, other), edges=((1, 2, -1.0),))
    with pytest.raises(ValueError):
        PowerNetwork(nodes=(good, other), edges=((1, 2, 1.0), (2, 1, 2.0)))
    with pytest.raises(ValueError):
        PowerNetwork(nodes=(good, other), edges=((1, 3, 1.0),))


def test_alpha_s():
    net, _ = make_machine_net(2, alpha=[1.0, 2.0], edges=[(1, 2, 1.0)])
    assert net.alpha_s == pytest.approx(1.0 / (1.0 + 0.5), rel=0, abs=0)


def test_check_homogeneous_pass():
    net, comm = ring_net(3)
    rep = check_homogeneous(net, comm)
    assert rep.passed
    assert rep.m == 1.0 and rep.d == 1.0


def test_check_homogeneous_price_failure():
    net, comm = make_machine_net(3, alpha=[1.0, 2.0, 1.0],
                                 edges=[(1, 2, 1.0), (2, 3, 1.0)])
    rep = check_homogeneous(net, comm)
    assert not rep.passed
    assert any("prices not uniform" in r for r in rep.reasons)


def test_check_homogeneous_mixed_case():
    net = load_case(bundled_case_path("ieee39-like"))[0]
    rep = check_homogeneous(net)
    assert not rep.passed
    assert any("frequency-dependent" in r for r in rep.reasons)


def test_check_homogeneous_comm_mismatch():
    net, _ = ring_net(3)
    comm = CommunicationGraph(weights=((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)))
    # ring has the (1,3) closing edge at weight 1 as well, so change one weight
    comm2 = CommunicationGraph(weights=((1, 2, 2.0), (2, 3, 1.0), (1, 3, 1.0)))
    assert check_homogeneous(net, comm).passed
    assert not check_homogeneous(net, comm2).passed


def test_comm_graph_checks():
    comm = CommunicationGraph(weights=((1, 2, 1.0),))
    assert comm.is_connected_over((1, 2))
    assert not comm.is_connected_over((1, 2, 3))
    with pytest.raises(ShapeError):
        comm.laplacian((1,))  # edge touches node 2, not a controller here
    L = comm.laplacian((1, 2))
    assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])


def test_comm_laplacian_invariants():
    rng = np.random.default_rng(6)
    ids = tuple(range(1, 7))
    weights = [(i, j, float(rng.uniform(0, 2)))
               for i in ids for j in ids if i < j and rng.random() < 0.6]
    comm = CommunicationGraph(weights=tuple(weights))
    L = comm.laplacian(ids)
    assert np.abs(L @ np.ones(6)).max() <= 1e-12 * max(1.0, np.abs(L).max())
    assert np.array_equal(L, L.T)
    assert np.linalg.eigvalsh(L).min() >= -1e-12 * max(1.0, np.abs(L).max())


@pytest.mark.parametrize("build, error, message", [
    (lambda: Node(1, NodeKind.MACHINE, inertia=1.0, damping=0.0, price=1.0),
     ValueError, "node 1: machine needs damping D > 0"),
    (lambda: Node(2, NodeKind.FREQ_DEPENDENT, damping=-1.0, price=1.0),
     ValueError, "node 2: frequency-dependent node needs damping D > 0"),
    (lambda: Node(3, NodeKind.PASSIVE, price=1.0),
     ValueError, "node 3: passive node has no controller, drop alpha"),
    (lambda: PowerNetwork(nodes=(Node(1, NodeKind.PASSIVE),), edges=((1, 1, 1.0),)),
     ValueError, "self-loop at node 1"),
    (lambda: CommunicationGraph(weights=((2, 2, 1.0),)),
     ValueError, "communication self-loop at node 2"),
    (lambda: CommunicationGraph(weights=((1, 2, 1.0), (2, 1, 0.5))),
     ValueError, "duplicate communication edge (2,1)"),
    (lambda: spectral_decompose(np.zeros((2, 3))),
     ShapeError, "Laplacian must be square, got shape (2, 3)"),
], ids=["machine-damping", "load-damping", "passive-price", "line-self-loop",
        "comm-self-loop", "comm-duplicate", "non-square-laplacian"])
def test_outside_input_is_refused(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
