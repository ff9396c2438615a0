"""Acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them). Tolerances
are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from piac import (GainSchedule, OutputSelector, Scenario, assemble_dpiac,
                  assemble_gbpiac, bundled_case_path, build_laplacian,
                  compute_metrics, h2_bounds_general_B,
                  h2_dpiac_analytic, h2_gbpiac_analytic, h2_modal, h2_norms,
                  limit_k1_infinity, load_case, simulate_deterministic,
                  simulate_stochastic, spectral_decompose)
from conftest import machine_bus_input, random_homogeneous, ring_net

OM = OutputSelector.FREQUENCY_DEVIATION
U = OutputSelector.CONTROL_INPUT
SP = OutputSelector.MARGINAL_COST_SPREAD
US = OutputSelector.TOTAL_CONTROL_INPUT

SEED = 20260808


def _report(num, ok, detail):
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(b))


# --- 1: gather-broadcast closed form vs Lyapunov ------------------------------


def test_criterion_1_gbpiac_agreement():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        net, comm, m, d = random_homogeneous(rng)
        k1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        g = GainSchedule.analytic(k1)
        num_om, num_u = h2_norms(assemble_gbpiac(net, g), [OM, U])
        ana_om = h2_gbpiac_analytic(net.n_nodes, m, d, k1, OM).value
        worst = max(worst, _rel_gap(ana_om, num_om), _rel_gap(k1 / 2.0, num_u))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, ok, f"50 cases, worst relative gap {worst:.2e} "
                   f"(tol 1e-08), runtime {elapsed:.1f}s (< 10s)")


# --- 2: distributed closed form vs Lyapunov, all three outputs ----------------


def test_criterion_2_dpiac_agreement():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(50):
        net, comm, m, d = random_homogeneous(rng)
        k1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        k3 = float(rng.uniform(0.0, 10.0))
        g = GainSchedule.analytic(k1, k3)
        spec = spectral_decompose(build_laplacian(net))
        for sel in (OM, U, SP):
            num = h2_norms(assemble_dpiac(net, comm, g), [sel])[0]
            ana = h2_dpiac_analytic(spec, m, d, k1, k3, sel).value
            worst = max(worst, _rel_gap(ana, num))
    # worked point: n = 2 with lambda_2 = 2 at unit parameters
    net, comm = ring_net(2, k=1.0)
    spec = spectral_decompose(build_laplacian(net))
    point = [h2_dpiac_analytic(spec, 1.0, 1.0, 1.0, 1.0, sel).value
             for sel in (OM, U, SP)]
    point_ok = (abs(point[0] - 19.0 / 30.0) <= 1e-12
                and abs(point[1] - 0.7) <= 1e-12
                and abs(point[2] - 0.8) <= 1e-12)
    g = GainSchedule.analytic(1.0, 1.0)
    for sel, expect in zip((OM, U, SP), point):
        num = h2_norms(assemble_dpiac(net, comm, g), [sel])[0]
        worst = max(worst, _rel_gap(expect, num))
    ok = worst <= 1e-8 and point_ok
    _report(2, ok, f"50 cases x 3 outputs + worked point "
                   f"(0.63333, 0.7, 0.8), worst relative gap {worst:.2e} (tol 1e-08)")


# --- 3: per-mode blocks vs dense solve ----------------------------------------


def test_criterion_3_modal_oracle_equivalence():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    checked = 0
    for _ in range(15):
        net, comm, m, d = random_homogeneous(rng)
        k1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        k3 = float(rng.uniform(0.0, 10.0))
        spec = spectral_decompose(build_laplacian(net))
        g = GainSchedule.analytic(k1, k3)
        for law, selectors in (("gbpiac", (OM, U, US)),
                               ("dpiac", (OM, U, SP, US))):
            for sel in selectors:
                if law == "gbpiac":
                    sys = assemble_gbpiac(net, g)
                else:
                    sys = assemble_dpiac(net, comm, g)
                dense = h2_norms(sys, [sel])[0]
                modal, _ = h2_modal(sys, spec, sel)
                worst = max(worst, abs(modal - dense) / max(1.0, abs(dense)))
                checked += 1
    ok = worst <= 1e-9
    _report(3, ok, f"{checked} law/output pairs, worst dense-vs-modal gap "
                   f"{worst:.2e} (tol 1e-09)")


# --- 4: limit behavior ----------------------------------------------------------


def test_criterion_4_limits():
    rng = np.random.default_rng(SEED + 3)
    net, comm, m, d = random_homogeneous(rng, n=6)
    spec = spectral_decompose(build_laplacian(net))
    k3 = 1.3
    lim = limit_k1_infinity(spec, m, d, k3)
    at_big_k1 = h2_dpiac_analytic(spec, m, d, 1e6, k3, OM).value
    gap_k1 = abs(at_big_k1 - lim) / max(1e-300, lim)

    k1 = 0.9
    gb_om = h2_gbpiac_analytic(net.n_nodes, m, d, k1, OM).value
    gb_u = h2_gbpiac_analytic(net.n_nodes, m, d, k1, U).value
    dp_om = h2_dpiac_analytic(spec, m, d, k1, 1e6, OM).value
    dp_u = h2_dpiac_analytic(spec, m, d, k1, 1e6, U).value
    gap_k3 = max(abs(dp_om - gb_om) / gb_om, abs(dp_u - gb_u) / gb_u)

    net5, _ = ring_net(5, k=1.0)
    spec5 = spectral_decompose(build_laplacian(net5))
    scaled = [k1v * h2_dpiac_analytic(spec5, 1.0, 1.0, k1v, 0.0, OM).value
              for k1v in (1.0, 10.0, 100.0, 1000.0)]
    dec_var = abs(scaled[-1] - scaled[-2]) / scaled[-1]

    ok = gap_k1 <= 1e-3 and gap_k3 <= 1e-3 and dec_var < 0.05
    _report(4, ok, f"k1->inf gap {gap_k1:.2e} (tol 1e-03), k3->inf gap "
                   f"{gap_k3:.2e} (tol 1e-03), k1-scaled decentralized "
                   f"variation {dec_var:.2%} (< 5%)")


# --- 5: disturbance-direction bounds --------------------------------------------


def test_criterion_5_bounds_general_B():
    rng = np.random.default_rng(SEED + 4)
    net, comm = ring_net(4, k=1.2)
    spec = spectral_decompose(build_laplacian(net))
    g = GainSchedule.analytic(0.8, 1.5)
    base = {("gbpiac", OM): h2_gbpiac_analytic(4, 1.0, 1.0, 0.8, OM).value,
            ("gbpiac", U): h2_gbpiac_analytic(4, 1.0, 1.0, 0.8, U).value,
            ("dpiac", OM): h2_dpiac_analytic(spec, 1.0, 1.0, 0.8, 1.5, OM).value,
            ("dpiac", U): h2_dpiac_analytic(spec, 1.0, 1.0, 0.8, 1.5, U).value}
    checked = 0
    ok = True
    for _ in range(20):
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        B = Q @ np.diag(rng.uniform(0.3, 3.0, size=4)) @ Q.T
        B = 0.5 * (B + B.T)
        for law in ("gbpiac", "dpiac"):
            for sel in (OM, U):
                lo, hi = h2_bounds_general_B(base[(law, sel)], B)
                if law == "gbpiac":
                    sys = assemble_gbpiac(net, g, B_in=B)
                else:
                    sys = assemble_dpiac(net, comm, g, B_in=B)
                num = h2_norms(sys, [sel])[0]
                ok = ok and (lo - 1e-9 * max(1, hi) <= num <= hi + 1e-9 * max(1, hi))
                checked += 1
    _report(5, ok, f"{checked} (B, law, output) triples inside "
                   "[gamma_min^2 G, gamma_max^2 G]")


# --- 6: coordination never beats central dispatch on input norm ----------------


def test_criterion_6_input_norm_inequality():
    rng = np.random.default_rng(SEED + 5)
    ok = True
    min_gap = np.inf
    for _ in range(50):
        net, comm, m, d = random_homogeneous(rng)
        k1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        k3 = float(10.0 ** rng.uniform(-2.0, 1.7))
        spec = spectral_decompose(build_laplacian(net))
        gb = h2_gbpiac_analytic(net.n_nodes, m, d, k1, U).value
        dp = h2_dpiac_analytic(spec, m, d, k1, k3, U).value
        min_gap = min(min_gap, dp - gb)
        ok = ok and (gb < dp)
    _report(6, ok, f"50 sampled finite-k3 cases, min (distributed - central) "
                   f"input-norm gap {min_gap:.3e} > 0")


# --- 7: stationary variance interpretation --------------------------------------


def test_criterion_7_stochastic_variance():
    # linear Euler-Maruyama E_S against sigma^2 times the omega norm: on a
    # ring against the closed form, and on ieee39-like, with noise on the
    # machine buses, against the numeric norm over every non-passive bus
    t0 = time.perf_counter()
    sigma = 0.01
    net, comm = ring_net(5, k=1.0)
    spec = spectral_decompose(build_laplacian(net))
    g = GainSchedule.analytic(1.0, 1.0)
    ring_pred = sigma ** 2 * h2_dpiac_analytic(spec, 1.0, 1.0, 1.0, 1.0, OM).value
    net39, comm39, g39, _ = load_case(bundled_case_path("ieee39-like"))
    ieee_pred = sigma ** 2 * h2_norms(
        assemble_dpiac(net39, comm39, g39, machine_bus_input(net39)), [OM])[0]
    details, ok = [], True
    for name, net, comm, g, buses, pred in (
            ("ring5", net, comm, g, range(1, 6), ring_pred),
            ("ieee39-like", net39, comm39, g39, range(30, 40), ieee_pred)):
        scen = Scenario.white_noise({i: sigma for i in buses}, seed=SEED,
                                    t_end=250.0, h=1e-3, paths=20, burn_in=50.0)
        _, met = simulate_stochastic(net, comm, "dpiac", g, scen, model="linear")
        z = abs(met.E_S - pred) / met.E_S_se
        ok = ok and z <= 3.0
        details.append(f"{name}: E[w'w] = {met.E_S:.6e} vs sigma^2 * norm = "
                       f"{pred:.6e}, |z| = {z:.2f} (<= 3)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(7, ok, f"{'; '.join(details)}, runtime {elapsed:.0f}s (< 120s)")


# --- 8 and 9: deterministic study on the bundled cases --------------------------


@pytest.fixture(scope="module")
def study_runs():
    net, comm, _, scen = load_case(bundled_case_path("homogeneous10"))
    runs = {}
    t0 = time.perf_counter()
    for k1 in (0.4, 0.8, 1.6):
        g = GainSchedule.analytic(k1, 4.0)
        runs[("dpiac", k1, 4.0)] = simulate_deterministic(net, comm, "dpiac",
                                                          g, scen)
    for k3 in (1.0, 16.0):
        g = GainSchedule.analytic(0.8, k3)
        runs[("dpiac", 0.8, k3)] = simulate_deterministic(net, comm, "dpiac",
                                                          g, scen)
    trend_time = time.perf_counter() - t0
    runs[("gbpiac", 0.8, 0.0)] = simulate_deterministic(
        net, comm, "gbpiac", GainSchedule.analytic(0.8), scen)
    runs[("decpiac", 0.8, 0.0)] = simulate_deterministic(
        net, comm, "decpiac", GainSchedule.analytic(0.8), scen)
    net39, comm39, gains39, scen39 = load_case(bundled_case_path("ieee39-like"))
    runs39 = simulate_deterministic(net39, comm39, "dpiac", gains39, scen39)
    return {"net": net, "scen": scen, "runs": runs, "trend_time": trend_time,
            "net39": net39, "scen39": scen39, "run39": runs39}


def test_criterion_8_deterministic_trends(study_runs):
    net, scen = study_runs["net"], study_runs["scen"]
    runs = study_runs["runs"]
    s_by_k1, c_by_k1 = [], []
    for k1 in (0.4, 0.8, 1.6):
        met = compute_metrics(runs[("dpiac", k1, 4.0)], net.prices, t0=40.0)
        s_by_k1.append(met.S)
        c_by_k1.append(met.C)
    c_by_k3, spread_by_k3 = [], []
    for k3 in (1.0, 4.0, 16.0):
        tr = runs[("dpiac", 0.8, k3)]
        met = compute_metrics(tr, net.prices, t0=40.0)
        c_by_k3.append(met.C)
        after = tr.t >= scen.onset
        spread_by_k3.append(float((tr.mc[after].max(axis=1)
                                   - tr.mc[after].min(axis=1)).max()))
    s_down = s_by_k1[0] > s_by_k1[1] > s_by_k1[2]
    c_up = c_by_k1[0] < c_by_k1[1] < c_by_k1[2]
    c_down = c_by_k3[0] > c_by_k3[1] > c_by_k3[2]
    spread_down = spread_by_k3[0] > spread_by_k3[1] > spread_by_k3[2]
    ok = (s_down and c_up and c_down and spread_down
          and study_runs["trend_time"] < 60.0)
    _report(8, ok,
            f"S(k1) {['%.4g' % s for s in s_by_k1]} strictly falling: {s_down}; "
            f"C(k1) {['%.4g' % c for c in c_by_k1]} strictly rising: {c_up}; "
            f"C(k3) {['%.4g' % c for c in c_by_k3]} strictly falling: {c_down}; "
            f"max mc spread(k3) {['%.3g' % s for s in spread_by_k3]} "
            f"shrinking: {spread_down}; runtime {study_runs['trend_time']:.0f}s (< 60s)")


def test_criterion_9_steady_state(study_runs):
    failures = []
    checked = 0

    def check(tag, tr, net, scen, law):
        nonlocal checked
        checked += 1
        p_post = net.injections.copy()
        for nid, dp in scen.steps.items():
            p_post[net.index_of[nid]] += dp
        u_end = tr.u[-1]
        total_d = net.dampings.sum()
        omega_syn = (p_post.sum() + u_end.sum()) / total_d
        balance = abs(u_end.sum() + p_post.sum())
        if abs(omega_syn) > 1e-5:
            failures.append(f"{tag}: |omega_syn|={omega_syn:.2e}")
        if balance > 1e-4:
            failures.append(f"{tag}: |sum u + sum P|={balance:.2e}")
        if law in ("gbpiac", "dpiac"):
            mc = tr.mc[-1]
            if mc.max() - mc.min() > 1e-3:
                failures.append(f"{tag}: mc spread={mc.max() - mc.min():.2e}")

    net, scen = study_runs["net"], study_runs["scen"]
    for (law, k1, k3), tr in study_runs["runs"].items():
        check(f"{law} k1={k1} k3={k3}", tr, net, scen, law)
    check("dpiac ieee39-like", study_runs["run39"], study_runs["net39"],
          study_runs["scen39"], "dpiac")
    ok = not failures
    _report(9, ok, f"{checked} runs end at the optimal steady state "
                   f"(|omega_syn| <= 1e-5, balance <= 1e-4, mc spread <= 1e-3)"
                   + ("" if ok else "; violations: " + "; ".join(failures)))
