"""The three allocation laws side by side, plus the economic dispatch they
all converge to.

Run: python demos/02_control_laws_and_dispatch.py
"""

import numpy as np

from piac import (CommunicationGraph, ControlLaw, GainSchedule, Node, NodeKind,
                  PowerNetwork, optimal_dispatch, synchronized_frequency)

# Two machines with different control prices and an unbalanced injection.
nodes = (Node(id=1, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0,
              injection=2.0, price=1.0),
         Node(id=2, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0,
              injection=1.0, price=2.0))
net = PowerNetwork(nodes=nodes, edges=((1, 2, 1.0),))
comm = CommunicationGraph(weights=((1, 2, 1.0),))

# Without control, the surplus parks the frequency above nominal.
print("synchronized frequency, no control:",
      synchronized_frequency(net, np.zeros(2)))

# The optimum absorbs the 3 p.u. surplus with equal marginal costs: the
# cheap node does twice the work of the expensive one.
u_star = optimal_dispatch(net)
print("optimal dispatch:", u_star)
print("marginal costs alpha*u:", net.prices * u_star)
print("synchronized frequency at the optimum:",
      synchronized_frequency(net, u_star))

gains = GainSchedule.analytic(k1=1.0, k3=1.0)
omega = np.array([0.1, 0.1])

# Gather-broadcast: one central integrator pair, broadcast by inverse price.
law = ControlLaw.build(net, comm, "gbpiac", gains)
eta, xi = np.zeros(1), np.zeros(1)
d_eta, d_xi, u = law.d_eta(omega, xi), law.d_xi(omega, eta, xi), law.u(xi)
print("\ngather-broadcast  d_eta=%.3f d_xi=%.3f u=%s" % (d_eta[0], d_xi[0], u))

# Distributed: local pairs plus consensus on the marginal costs. With
# xi = (1, 0) the costs disagree, so the eta integrators trade imbalance.
law = ControlLaw.build(net, comm, "dpiac", gains)
xi = np.array([1.0, 0.0])
d_eta = law.d_eta(np.zeros(2), xi)
print("distributed       d_eta=%s (consensus shuffles imbalance)" % d_eta)
print("                  marginal costs now:", law.mc(xi))

# Decentralized: the same law with the consensus term removed.
d_eta0 = ControlLaw.build(net, comm, "decpiac", gains).d_eta(np.zeros(2), xi)
print("decentralized     d_eta=%s (no coordination)" % d_eta0)
