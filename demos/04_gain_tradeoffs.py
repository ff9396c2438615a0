"""The two design trade-offs in one picture: pushing k1 buys frequency at
the price of control effort, pushing k3 buys marginal-cost consensus for
free (almost) and drives the distributed law toward the central one.

Writes demos/out/tradeoff_k1.svg and demos/out/convergence_k3.svg.

Run: python demos/04_gain_tradeoffs.py
"""

import os

import numpy as np

from piac import (Node, NodeKind, OutputSelector,
                  PowerNetwork, build_laplacian, compare_laws,
                  h2_dpiac_analytic, h2_gbpiac_analytic, spectral_decompose)
from piac.svgplot import svg_line_chart

nodes = tuple(Node(id=i, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0,
                   price=1.0) for i in range(1, 11))
edges = tuple((i, i % 10 + 1, 2.5) for i in range(1, 11))
net = PowerNetwork(nodes=nodes, edges=edges)
spec = spectral_decompose(build_laplacian(net))
os.makedirs(os.path.join(os.path.dirname(__file__), "out"), exist_ok=True)


def out(name):
    return os.path.join(os.path.dirname(__file__), "out", name)


def save(name, chart):
    with open(out(name), "w", encoding="utf-8") as fh:
        fh.write(chart)


# --- k1: frequency vs effort ---------------------------------------------
k1_grid = np.geomspace(0.1, 10.0, 25)
om = [h2_dpiac_analytic(spec, 1, 1, k1, 2.0,
                        OutputSelector.FREQUENCY_DEVIATION).value
      for k1 in k1_grid]
uu = [h2_dpiac_analytic(spec, 1, 1, k1, 2.0,
                        OutputSelector.CONTROL_INPUT).value for k1 in k1_grid]
print("k1 sweep (k3 = 2):")
print("  frequency norm falls  %0.4f -> %0.4f" % (om[0], om[-1]))
print("  input norm rises      %0.4f -> %0.4f  (the trade-off)" % (uu[0], uu[-1]))
save("tradeoff_k1.svg",
     svg_line_chart(k1_grid, {"frequency norm": om, "input norm": uu},
                    title="frequency/effort trade-off vs k1", xlabel="k1", logx=True))

# The frequency norm saturates: its floor is the k1 -> inf limit, so past a
# point extra gain only buys effort.
floor = h2_dpiac_analytic(spec, 1, 1, 1e9, 2.0,
                          OutputSelector.FREQUENCY_DEVIATION).value
print("  floor at k1 -> inf    %0.4f" % floor)

# --- k3: distributed -> central ------------------------------------------
k3_grid = np.geomspace(0.1, 1000.0, 25)
rows = compare_laws(spec, 1.0, 1.0, 1.0, k3_grid)
gb_u = h2_gbpiac_analytic(10, 1.0, 1.0, 1.0, OutputSelector.CONTROL_INPUT).value
print("\nk3 sweep (k1 = 1): distributed input norm vs the central value "
      f"{gb_u:.3f}")
for row in rows[::6]:
    print(f"  k3={row['k3']:8.2f}  u-norm={row['dpiac_u']:.5f}  "
          f"gap={row['u_gap']:.2e}")
spread = [h2_dpiac_analytic(spec, 1, 1, 1.0, k3,
                            OutputSelector.MARGINAL_COST_SPREAD).value
          for k3 in k3_grid]
save("convergence_k3.svg",
     svg_line_chart(k3_grid,
                    {"input-norm gap to central": [r["u_gap"] for r in rows],
                     "marginal-cost spread norm": spread},
                    title="coordination closes the gap to central control",
                    xlabel="k3", logx=True))
print("\nwrote", out("tradeoff_k1.svg"), "and", out("convergence_k3.svg"))
