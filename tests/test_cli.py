import dataclasses
import errno
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from piac import (LAWS, GainSchedule, OutputSelector, PowerNetwork, analyze,
                  build_laplacian, bundled_case_path, h2_dpiac_analytic,
                  load_case, save_case, spectral_decompose)
import piac.cli as cli
import piac.h2
from piac.cli import main
from piac.closedloop import MODELS
from piac.sim import METRICS_T0
from conftest import ring_net

TWO_NODE = """
[nodes]
1 machine M=1.0 D=1.0 P=0.0 alpha=1.0
2 machine M=1.0 D=1.0 P=0.0 alpha=1.0
[edges]
1 2 K=1.0
[comm]
1 2 l=1.0
[gains]
k1=1.0
k2=4.0
k3=1.0
[scenario]
kind=step
t_end=50.0
h=0.01
onset=2.0
step=1:-0.2
"""

HET = """
[nodes]
1 machine M=1.0 D=1.0 P=0.0 alpha=1.0
2 machine M=2.0 D=0.5 P=0.0 alpha=2.0
[edges]
1 2 K=1.0
[comm]
1 2 l=1.0
[gains]
k1=1.0
k2=4.0
k3=1.0
"""


@pytest.fixture
def two_node_case(tmp_path):
    p = tmp_path / "two.case"
    p.write_text(TWO_NODE)
    return str(p)


@pytest.fixture
def het_case(tmp_path):
    p = tmp_path / "het.case"
    p.write_text(HET)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--case",
                       bundled_case_path("homogeneous10"))
    assert code == 0
    assert "homogeneity: pass" in out


def test_validate_heterogeneous(capsys, het_case):
    code, out, _ = run(capsys, "validate", "--case", het_case)
    assert code == 0
    assert "homogeneity: fail" in out


def test_validate_format_error(capsys, tmp_path):
    p = tmp_path / "bad.case"
    p.write_text("[nodes]\n1 machine M=1 D=1 alpha=1\n[edges]\n1 1 K\n")
    code, _, err = run(capsys, "validate", "--case", str(p))
    assert code == 2
    assert "case format error" in err


def test_validate_disconnected(capsys, tmp_path):
    p = tmp_path / "disc.case"
    p.write_text("""
[nodes]
1 machine M=1 D=1 alpha=1
2 machine M=1 D=1 alpha=1
3 machine M=1 D=1 alpha=1
[edges]
1 2 K=1.0
""".strip())
    code, _, err = run(capsys, "validate", "--case", str(p))
    assert code == 3


def test_validate_bad_gains(capsys, tmp_path):
    p = tmp_path / "gains.case"
    p.write_text(TWO_NODE.replace("k2=4.0", "k2=1.0"))
    code, _, err = run(capsys, "validate", "--case", str(p))
    assert code == 4
    assert "gain constraint" in err


def test_analyze_worked_point(capsys, two_node_case):
    code, out, _ = run(capsys, "analyze", "--case", two_node_case,
                       "--law", "dpiac", "--selector", "omega")
    assert code == 0
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["numeric"]) == pytest.approx(19.0 / 30.0, abs=1e-8)
    assert float(vals["rel_gap"]) <= 1e-8


def test_analyze_json_format(capsys, two_node_case):
    code, out, _ = run(capsys, "analyze", "--case", two_node_case,
                       "--law", "dpiac", "--selector", "u",
                       "--format", "json", "--limits")
    assert code == 0
    payload = json.loads(out)
    assert payload["numeric"] == pytest.approx(0.7, abs=1e-8)
    assert payload["limit_k3_inf"] == pytest.approx(0.5, abs=1e-12)


def test_analyze_gbpiac_u_topology_free(capsys, two_node_case):
    code, out, _ = run(capsys, "analyze", "--case", two_node_case,
                       "--law", "gbpiac", "--selector", "u", "--k1", "0.5",
                       "--k2", "2.0")
    assert code == 0
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["numeric"]) == pytest.approx(0.25, abs=1e-8)


def test_analyze_omega_feedthrough_refused(capsys):
    # the default input reaches the load buses' frequencies directly, so
    # their omega norm is infinite: refused, naming the 19 load buses
    code, _, err = run(capsys, "analyze", "--case",
                       bundled_case_path("ieee39-like"), "--law", "dpiac")
    assert code == 5
    assert ("bus(es) 2, 3, 4, 7, 8, 12, 15, 16, 18, 19, 20, 21, 23, 24, 25, 26, "
            "27, 28, 29;") in err
    assert "--b-diag" in err


def test_analyze_mixed_network_prints_numeric_norms(capsys):
    # every selector at the machine-bus input, and every selector but omega
    # at the default input, gets a finite numeric norm and no closed form
    case = bundled_case_path("ieee39-like")
    machines = ",".join("1" if i >= 30 else "0" for i in range(1, 40))
    for law in LAWS:
        for sel, extra in ([(sel, []) for sel in ("u", "us", "spread")]
                           + [(sel, ["--b-diag", machines])
                              for sel in ("omega", "u", "us", "spread")]):
            code, out, err = run(capsys, "analyze", "--case", case, "--law", law,
                                 "--selector", sel, *extra)
            assert code == 0, err
            header, row = out.strip().splitlines()
            vals = dict(zip(header.split(","), row.split(",")))
            assert math.isfinite(float(vals["numeric"]))
            assert vals["analytic"] == ""


@pytest.mark.parametrize("k1", ["1e13", "1e16"])
@pytest.mark.parametrize("case", ["homogeneous10", "ieee39-like"])
def test_analyze_refuses_gains_beyond_round_off(capsys, case, k1):
    # at these gains the deflation's rank tolerance reaches pivots of the
    # swing equations and drops directions the law does not conserve; the
    # truncated loop's norm is refused (exit 5), never printed. gbpiac and
    # decpiac on homogeneous10 at 1e13 keep a kernel and fail the margin
    extra = []
    if case == "ieee39-like":
        extra = ["--b-diag", ",".join("1" if i >= 30 else "0" for i in range(1, 40))]
    for law in LAWS:
        code, out, err = run(capsys, "analyze", "--case", bundled_case_path(case),
                             "--law", law, "--k1", k1, *extra)
        assert code == 5 and out == "", (law, err)
        if case == "homogeneous10" and k1 == "1e13" and law != "dpiac":
            assert "rounding margin" in err, (law, err)
        else:
            assert "unreachable directions where the" in err, (law, err)


def test_k1_without_k2_takes_4k1(capsys):
    # the bundled case has k1 = 0.8, k2 = 3.2; a k1 given alone must not be
    # paired with the file's k2
    case = bundled_case_path("homogeneous10")
    code, _, err = run(capsys, "analyze", "--case", case, "--law", "dpiac",
                       "--k1", "2")
    assert code == 0, err
    code, out, err = run(capsys, "analyze", "--case", case, "--law", "dpiac",
                         "--k1", "0.5", "--analytic")
    assert code == 0, err
    code, explicit, _ = run(capsys, "analyze", "--case", case, "--law", "dpiac",
                            "--k1", "0.5", "--k2", "2", "--analytic")
    assert code == 0
    assert out == explicit


def test_analyze_refuses_analytic_on_heterogeneous(capsys, het_case):
    for case in (het_case, bundled_case_path("ieee39-like")):
        code, _, err = run(capsys, "analyze", "--case", case,
                           "--law", "dpiac", "--analytic")
        assert code == 6
        assert "refused" in err


def test_analyze_gbpiac_spread_ignores_comm_graph(capsys, tmp_path):
    # the gather-broadcast spread is identically zero and reads no graph, so
    # a communication graph that differs from the grid refuses only the laws
    # that read it
    text = Path(bundled_case_path("homogeneous10")).read_text()
    case = tmp_path / "comm.case"
    case.write_text(text.replace("3 8 l=2.5", "3 8 l=1.0"))
    code, out, _ = run(capsys, "analyze", "--case", str(case), "--law", "gbpiac",
                       "--selector", "spread", "--analytic")
    assert code == 0
    assert out.splitlines()[1].split(",")[2:4] == ["0", "0"]
    for law in ("dpiac", "decpiac"):
        code, _, err = run(capsys, "analyze", "--case", str(case), "--law", law,
                           "--selector", "spread", "--analytic")
        assert code == 6 and "refused" in err


def test_analyze_dpiac_without_consensus_reads_no_comm_graph(capsys, tmp_path):
    # at k3 = 0 the consensus term is zero and the loop is decpiac's: a
    # communication graph off the grid refuses the closed form only where
    # the loop reads it, at k3 > 0 or through the spread
    text = Path(bundled_case_path("homogeneous10")).read_text()
    case = tmp_path / "comm.case"
    case.write_text(text.replace("3 8 l=2.5", "3 8 l=1.0"))
    law = ["analyze", "--case", str(case), "--law"]
    code, dec, _ = run(capsys, *law, "decpiac", "--analytic")
    assert code == 0 and dec.splitlines()[1].split(",")[2:5] == [
        "3.9586539544", "3.9586539544", "0"]
    code, out, _ = run(capsys, *law, "dpiac", "--k3", "0", "--analytic")
    assert code == 0 and out.replace("dpiac", "decpiac") == dec
    for extra in (["--k3", "1"], ["--selector", "spread", "--k3", "0"]):
        code, out, err = run(capsys, *law, "dpiac", *extra, "--analytic")
        assert (code, out) == (6, "") and err == (
            "closed-form analysis refused: communication weights differ from "
            "line susceptances\n")


def test_analyze_bounds_with_b_diag(capsys, two_node_case):
    code, out, _ = run(capsys, "analyze", "--case", two_node_case,
                       "--law", "gbpiac", "--b-diag", "0.5,2.0")
    assert code == 0
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    lo, hi = float(vals["bound_lo"]), float(vals["bound_hi"])
    num = float(vals["numeric"])
    assert lo - 1e-12 <= num <= hi + 1e-12
    assert vals["analytic"] == ""  # closed form needs B = I


def test_analyze_dpiac_ring45_within_2gib(tmp_path):
    # deflated dimension 179, analyzed in a child capped at 2 GiB of address space
    net, comm = ring_net(45)
    case = tmp_path / "ring45.case"
    save_case(case, net, comm, GainSchedule.analytic(1.0, 1.0))
    capped = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, "
              "(2 << 30, 2 << 30)); from piac.cli import main; "
              "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", capped, "analyze", "--case",
                           str(case), "--law", "dpiac", "--format", "json"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = h2_dpiac_analytic(spectral_decompose(build_laplacian(net)),
                                 1.0, 1.0, 1.0, 1.0).value
    assert json.loads(proc.stdout)["numeric"] == pytest.approx(expected, rel=1e-8)


def test_sweep_k3_spread_decreasing(capsys, two_node_case, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--case", two_node_case, "--law", "dpiac",
                     "--param", "k3", "--grid", "1,10,100",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "k3,omega_norm,u_norm,spread_norm"
    spread = [float(r.split(",")[3]) for r in lines[1:]]
    assert spread[0] > spread[1] > spread[2]


def test_sweep_k1_u_increasing(capsys, two_node_case):
    code, out, _ = run(capsys, "sweep", "--case", two_node_case, "--law", "dpiac",
                       "--param", "k1", "--grid", "0.25,0.5,1.0")
    assert code == 0
    lines = out.strip().splitlines()
    u = [float(r.split(",")[2]) for r in lines[1:]]
    assert u[0] < u[1] < u[2]


def test_sweep_empty_grid(capsys, two_node_case):
    code, _, err = run(capsys, "sweep", "--case", two_node_case, "--law",
                       "dpiac", "--param", "k3", "--grid", "")
    assert code == 2
    assert "usage error" in err


def test_sweep_with_step_metrics(capsys, two_node_case, tmp_path):
    out_file = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--case", two_node_case, "--law", "dpiac",
                     "--param", "k1", "--grid", "0.5,1.0", "--sim", "step",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "k1,omega_norm,u_norm,spread_norm,S,C"
    rows = [list(map(float, r.split(","))) for r in lines[1:]]
    assert rows[0][4] > rows[1][4]    # S falls as k1 grows
    assert rows[0][5] < rows[1][5]    # C rises


def test_sweep_step_metrics_follow_the_model(capsys):
    # the swept S and C come from the model asked for, as in `simulate`;
    # the sine and linear models differ on homogeneous10 in the 6th digit
    case = bundled_case_path("homogeneous10")
    code, out, _ = run(capsys, "sweep", "--case", case, "--law", "dpiac",
                       "--param", "k3", "--grid", "2", "--sim", "step",
                       "--model", "linear")
    assert code == 0
    S, C = out.strip().splitlines()[1].split(",")[4:]
    code, out, _ = run(capsys, "simulate", "--case", case, "--law", "dpiac",
                       "--k3", "2", "--kind", "step", "--model", "linear")
    assert code == 0
    assert out.split() == [f"S={S}", f"C={C}", "(t0=40)"]


def test_simulate_step_off_the_closed_form_ratio(capsys, caplog, tmp_path):
    # k2 > 4 k1 simulates (only the closed forms need k2 = 4 k1), says so
    # at INFO, and ends at the optimal steady state of criterion 9
    case = bundled_case_path("homogeneous10")
    net, _, _, scen = load_case(case)
    out_file = tmp_path / "a.csv"
    with caplog.at_level(logging.INFO, logger="piac.sim"):
        code, out, _ = run(capsys, "simulate", "--case", case, "--law", "dpiac",
                           "--k1", "0.8", "--k2", "4", "--kind", "step",
                           "--out", str(out_file))
    assert code == 0 and out.startswith("S=")
    assert [(r.levelno, r.getMessage()) for r in caplog.records
            if r.name == "piac.sim"] == [
        (logging.INFO, "simulating with k2 = 4 != 4*k1 = 3.2; closed-form "
                       "comparisons are unavailable at this schedule")]
    last = [row.split(",") for row in
            out_file.read_text().splitlines()[-net.n_nodes:]]
    u = np.array([float(row[6]) for row in last])
    mc = np.array([float(row[7]) for row in last])
    p_post = net.injections.sum() + sum(scen.steps.values())
    assert abs((p_post + u.sum()) / net.dampings.sum()) <= 1e-5
    assert abs(u.sum() + p_post) <= 1e-4
    assert mc.max() - mc.min() <= 1e-3


def test_step_case_without_onset_steps_at_the_default_onset(capsys, tmp_path):
    # a step case file without onset= takes the default onset (5 s) in
    # `simulate`, in `sweep --sim step` and in the library alike
    case = tmp_path / "no-onset.case"
    text = Path(bundled_case_path("homogeneous10")).read_text()
    case.write_text(text.replace("onset=5.0\n", ""))
    net, comm, gains, scen = load_case(case)
    assert scen.onset == 5.0
    code, out, _ = run(capsys, "sweep", "--case", str(case), "--law", "dpiac",
                       "--param", "k3", "--grid", "4", "--sim", "step")
    assert code == 0
    S, C = out.strip().splitlines()[1].split(",")[4:]
    code, out, _ = run(capsys, "simulate", "--case", str(case), "--law", "dpiac")
    assert code == 0
    assert out.split() == [f"S={S}", f"C={C}", "(t0=40)"]


def test_analyze_and_sweep_run_without_the_modal_route(capsys, monkeypatch):
    # the modal blocks are the tests' oracle, not a step of the analysis:
    # every printed number comes from the dense route or the closed forms
    def refuse(*args, **kwargs):
        raise AssertionError("analyze must not run the modal route")

    monkeypatch.setattr(piac.h2, "h2_modal", refuse)
    case = bundled_case_path("homogeneous10")
    net, comm, gains, _ = load_case(case)
    for law in LAWS:
        for sel in OutputSelector:
            rep = analyze(net, comm, gains, law, sel, with_limits=True)
            assert rep.analytic is not None and rep.rel_gap <= 1e-8
    code, _, _ = run(capsys, "sweep", "--case", case, "--law", "dpiac",
                     "--param", "k3", "--grid", "1,10")
    assert code == 0


def test_sweep_factors_one_loop_per_grid_point(capsys, monkeypatch):
    # a grid point reads its three columns off one loop: one Schur
    # factorization, one controllability and three observability Grammians
    factored, solved = [], []
    schur, solve = scipy.linalg.schur, piac.h2.lyapunov_solve

    def counting_schur(*args, **kwargs):
        factored.append(1)
        return schur(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        solved.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
    monkeypatch.setattr(piac.h2, "lyapunov_solve", counting_solve)
    code, _, err = run(capsys, "sweep", "--case", bundled_case_path("homogeneous10"),
                       "--law", "dpiac", "--param", "k3", "--grid", "1,2,4")
    assert code == 0, err
    assert len(factored) == 3
    assert len(solved) == 12


def test_sweep_b_diag_matches_analyze(capsys):
    # with unit noise on the machine buses ieee39-like has a finite omega
    # norm, and each column of a row is what analyze prints for its selector
    case = bundled_case_path("ieee39-like")
    machines = ",".join("1" if i >= 30 else "0" for i in range(1, 40))
    code, out, err = run(capsys, "sweep", "--case", case, "--law", "dpiac",
                         "--param", "k3", "--grid", "1,4", "--b-diag", machines)
    assert code == 0, err
    header, *rows = out.strip().splitlines()
    assert header == "k3,omega_norm,u_norm,spread_norm"
    assert len(rows) == 2
    for row in rows:
        k3, *norms = row.split(",")
        for sel, value in zip(("omega", "u", "spread"), norms):
            code, out, err = run(capsys, "analyze", "--case", case, "--law", "dpiac",
                                 "--k3", k3, "--selector", sel, "--b-diag", machines)
            assert code == 0, err
            want = float(out.strip().splitlines()[1].split(",")[2])
            assert float(value) == pytest.approx(want, rel=1e-12), (k3, sel)


def test_sweep_omega_feedthrough_refused(capsys):
    # without --b-diag the default input reaches the load buses: exit 5,
    # recommending the option sweep now has; a short --b-diag is misuse
    case = bundled_case_path("ieee39-like")
    code, out, err = run(capsys, "sweep", "--case", case, "--law", "dpiac",
                         "--param", "k3", "--grid", "1,4")
    assert code == 5 and out == ""
    assert "--b-diag" in err
    code, _, err = run(capsys, "sweep", "--case", case, "--law", "dpiac",
                       "--param", "k3", "--grid", "1", "--b-diag", "1,1")
    assert code == 2
    assert "usage error: --b-diag needs 39 entries, got 2" in err


def test_sweep_with_noise_metrics(capsys, tmp_path):
    case = tmp_path / "noise.case"
    case.write_text(TWO_NODE.replace(
        "kind=step\nt_end=50.0\nh=0.01\nonset=2.0\nstep=1:-0.2",
        "kind=noise\nt_end=5.0\nh=0.001\nsigma=1:0.01\npaths=2\nburn_in=1.0"))
    code, out, _ = run(capsys, "sweep", "--case", str(case), "--law", "dpiac",
                       "--param", "k1", "--grid", "0.5,1.0", "--sim", "noise",
                       "--seed", "11", "--model", "linear")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k1,omega_norm,u_norm,spread_norm,E_S,E_C"
    assert all(len(r.split(",")) == 6 for r in lines[1:])


def test_sweep_noise_needs_seed(capsys, tmp_path):
    case = tmp_path / "noise.case"
    case.write_text(TWO_NODE.replace(
        "kind=step\nt_end=50.0\nh=0.01\nonset=2.0\nstep=1:-0.2",
        "kind=noise\nt_end=5.0\nh=0.001\nsigma=1:0.01\npaths=2\nburn_in=1.0"))
    code, _, err = run(capsys, "sweep", "--case", str(case), "--law", "dpiac",
                       "--param", "k1", "--grid", "0.5,1.0", "--sim", "noise")
    assert code == 2
    assert "seed" in err


def test_sweep_svg(capsys, two_node_case, tmp_path):
    svg = tmp_path / "chart.svg"
    code, _, _ = run(capsys, "sweep", "--case", two_node_case, "--law", "dpiac",
                     "--param", "k3", "--grid", "1,4,16", "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_sweep_chart_of_one_grid_point(capsys, two_node_case, tmp_path):
    # one point spans no range: the x axis runs over [2, 3]
    svg = tmp_path / "chart.svg"
    code, _, _ = run(capsys, "sweep", "--case", two_node_case, "--law", "dpiac",
                     "--param", "k3", "--grid", "2", "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert re.findall(r'y="366" text-anchor="middle">([^<]*)<', text) == \
        ["2", "2.2", "2.4", "2.6", "2.8", "3"]
    points = re.findall(r'<polyline points="([^"]*)"', text)
    assert len(points) == 3 and all(re.fullmatch(r"70\.00,[\d.]+", p) for p in points)


def test_chart_of_a_flat_series():
    # a series that does not move spans the y range [3, 4], padded by 5 %
    text = cli.svgplot.svg_line_chart([1.0, 2.0], {"flat": [3.0, 3.0]}, "t", "x", False)
    assert re.findall(r'dominant-baseline="middle">([^<]*)<', text) == ["3", "3.5", "4"]
    (points,) = re.findall(r'<polyline points="([^"]*)"', text)
    ys = {float(p.split(",")[1]) for p in points.split()}
    assert len(ys) == 1 and 40 < ys.pop() < 350


@pytest.mark.parametrize("x, ys", [([1e17], [1.0]), ([1.0, 2.0], [1e17, 1e17])],
                         ids=["one-point-x", "flat-y"])
def test_chart_of_an_empty_range_beyond_2_53(x, ys):
    # adding 1 to 1e17 leaves it as it is, so an empty range there is widened
    # by a part of its value
    text = cli.svgplot.svg_line_chart(x, {"s": ys}, "t", "x", False)
    grid = re.findall(r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)"',
                      text)
    x_ticks = [g for g in grid if g[0] == g[2]]
    y_ticks = [g for g in grid if g[1] == g[3]]
    assert 1 <= len(x_ticks) <= 6 and 1 <= len(y_ticks) <= 6
    assert text.endswith("</svg>\n")


def test_sweep_chart_of_a_grid_one_ulp_wide_is_written_in_a_child(tmp_path):
    # the two grid values are one ulp apart, so the tick step lies below the
    # spacing of floats at 1. Accumulated ticks stalled there, and the tick
    # list grew until memory ran out; the child has a bounded address space
    # and a timeout, so such a loop fails fast
    svg = tmp_path / "chart.svg"
    argv = ["sweep", "--case", bundled_case_path("homogeneous10"), "--law", "dpiac",
            "--param", "k1", "--grid", "1,1.0000000000000002", "--svg", str(svg)]
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "from piac.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    text = svg.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    labels = re.findall(r'y="366" text-anchor="middle">([^<]*)<', text)
    assert 1 <= len(labels) <= 6 and set(labels) == {"1"}


def test_noise_burn_in_past_the_last_row_is_refused_before_stepping(capsys,
                                                                   monkeypatch):
    # t_end admits the burn-in, but the last of the n = 100 steps ends at
    # t_n = 1, before it: no recorded row would be left to average
    import piac.sim

    monkeypatch.setattr(piac.sim, "_euler_maruyama", None)
    code, out, err = run(capsys, "simulate", "--case", bundled_case_path("homogeneous10"),
                         "--law", "dpiac", "--kind", "noise", "--t-end", "1.0000000005",
                         "--h", "0.01", "--burn-in", "1.0000000004", "--seed", "1",
                         "--sigma", "1:0.01", "--paths", "2")
    assert code == 2 and out == ""
    assert err == ("usage error: burn_in 1.0000000004 lies past the last recorded "
                   "time t_n = 1.0: no recorded row is left to average; give an "
                   "earlier burn-in\n")


def test_simulate_zero_disturbance(capsys, tmp_path):
    case = tmp_path / "quiet.case"
    case.write_text(TWO_NODE.replace("step=1:-0.2", "step=1:0.0"))
    code, out, _ = run(capsys, "simulate", "--case", str(case), "--law", "dpiac",
                       "--t-end", "41")
    assert code == 0
    s_val = float(out.split("S=")[1].split()[0])
    assert s_val <= 1e-15


def test_simulate_step_balance(capsys, two_node_case, tmp_path):
    out_file = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "simulate", "--case", two_node_case,
                       "--law", "dpiac", "--out", str(out_file))
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    last_t_rows = rows[-2:]
    u_sum = sum(float(r.split(",")[6]) for r in last_t_rows)
    assert abs(u_sum - 0.2) <= 1e-4
    assert "S=" in out and "C=" in out


def test_simulate_noise_requires_seed(capsys, two_node_case):
    code, _, err = run(capsys, "simulate", "--case", two_node_case,
                       "--law", "dpiac", "--kind", "noise",
                       "--sigma", "1:0.01", "--t-end", "2", "--h", "0.001",
                       "--paths", "2", "--burn-in", "0.5")
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("extra, message", [
    # the default burn-in (50 s) lies beyond a 4-s horizon
    (["--kind", "noise", "--sigma", "1:0.01", "--t-end", "4", "--seed", "1"],
     "burn_in must lie in [0, t_end)"),
    (["--h", "0"], "step h must be positive"),
], ids=["burn_in_past_horizon", "zero_step"])
def test_simulate_invalid_scenario_is_usage_error(capsys, two_node_case, extra,
                                                  message):
    code, _, err = run(capsys, "simulate", "--case", two_node_case,
                       "--law", "dpiac", *extra)
    assert code == 2
    assert f"usage error: {message}" in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--law", "gbpiac", "--b-diag", "1,x"], "--b-diag: 'x' is not a number"),
    (["sweep", "--law", "dpiac", "--param", "k3", "--grid", "1,x"],
     "--grid: 'x' is not a number"),
    (["simulate", "--law", "dpiac", "--step", "1:abc"], "--step: 'abc' is not a number"),
    (["simulate", "--law", "dpiac", "--step", "abc"], "--step: 'abc' is not an integer"),
    (["simulate", "--law", "dpiac", "--kind", "noise", "--seed", "1", "--sigma", "1:x"],
     "--sigma: 'x' is not a number"),
], ids=["b-diag", "grid", "step-value", "step-node", "sigma"])
def test_malformed_number_is_usage_error(capsys, two_node_case, argv, message):
    code, out, err = run(capsys, argv[0], "--case", two_node_case, *argv[1:])
    assert code == 2
    assert f"usage error: {message}" in err
    assert out == ""


HOM10_STEP = ["simulate", "--law", "gbpiac", "--kind", "step", "--step", "3:0.1",
              "--onset", "0.5", "--t-end", "2"]


@pytest.mark.parametrize("argv, code, message", [
    (["analyze", "--law", "dpiac", "--k1", "inf"], 4,
     "gain constraint violated: k1 must be finite, got inf"),
    (["analyze", "--law", "dpiac", "--k2", "inf"], 4,
     "gain constraint violated: k2 must be finite, got inf"),
    (["analyze", "--law", "dpiac", "--k3", "nan"], 4,
     "gain constraint violated: k3 must be finite, got nan"),
    (["analyze", "--law", "gbpiac", "--b-diag", "nan" + ",1" * 9], 2,
     "usage error: --b-diag: 'nan' is not a finite number"),
    (["sweep", "--law", "dpiac", "--param", "k3", "--grid", "1,inf"], 2,
     "usage error: --grid: 'inf' is not a finite number"),
    (HOM10_STEP + ["--t-end", "inf"], 2, "usage error: t_end must be finite, got inf"),
    (HOM10_STEP + ["--h", "nan"], 2, "usage error: h must be finite, got nan"),
    (HOM10_STEP + ["--onset", "nan"], 2, "usage error: onset must be finite, got nan"),
    (["simulate", "--law", "dpiac", "--kind", "noise", "--seed", "1", "--t-end", "2",
      "--burn-in", "inf"], 2, "usage error: burn_in must be finite, got inf"),
    (["simulate", "--law", "dpiac", "--kind", "noise", "--seed", "1", "--t-end", "2",
      "--burn-in", "1", "--sigma", "1:-inf"], 2,
     "usage error: --sigma: '-inf' is not a finite number"),
], ids=["k1-inf", "k2-inf", "k3-nan", "b-diag-nan", "grid-inf", "t-end-inf", "h-nan",
        "onset-nan", "burn-in-inf", "sigma-inf"])
def test_non_finite_number_is_refused(capsys, argv, code, message):
    got, out, err = run(capsys, argv[0], "--case", bundled_case_path("homogeneous10"),
                        *argv[1:])
    assert got == code
    assert message in err
    assert out == ""


@pytest.mark.parametrize("law", ["gbpiac", "decpiac"])
@pytest.mark.parametrize("argv, flag", [
    (["analyze", "--k3", "1"], "--k3"),
    (["analyze", "--k3", "nan"], "--k3"),
    (["sweep", "--param", "k1", "--grid", "1,2", "--k3", "100"], "--k3"),
    (["sweep", "--param", "k3", "--grid", "1,100"], "--param k3"),
    (["simulate", "--kind", "step", "--t-end", "2", "--k3", "1"], "--k3"),
], ids=["analyze", "analyze-nan", "sweep", "sweep-param-k3", "simulate"])
def test_k3_of_a_law_without_consensus_is_usage_error(capsys, law, argv, flag):
    # only dpiac has a consensus term: the other laws printed the same rows
    # at every k3. The flag is refused before its value is read, so nan is
    # a usage error here and a gain constraint (exit 4) under dpiac
    code, out, err = run(capsys, argv[0], "--case", bundled_case_path("homogeneous10"),
                         "--law", law, *argv[1:])
    assert code == 2
    assert (f"usage error: {flag} sets the consensus gain k3 of dpiac; "
            f"{law} does not read it") in err
    assert out == ""


def test_case_file_k3_is_valid_for_every_law(capsys, tmp_path):
    # a case file's gains serve every law; only dpiac's norms move with k3
    rows = {}
    for k3 in ("1.0", "100.0"):
        case = tmp_path / f"k3-{k3}.case"
        case.write_text(TWO_NODE.replace("k3=1.0", f"k3={k3}"))
        for law in LAWS:
            code, out, err = run(capsys, "analyze", "--case", str(case), "--law", law,
                                 "--selector", "spread")
            assert code == 0, err
            rows[law, k3] = out
    assert rows["gbpiac", "1.0"] == rows["gbpiac", "100.0"]
    assert rows["decpiac", "1.0"] == rows["decpiac", "100.0"]
    assert rows["dpiac", "1.0"] != rows["dpiac", "100.0"]


@pytest.mark.parametrize("grid, message", [
    (",", "sweep grid is empty"),
    ("0,1", "sweep grid values must be positive"),
    ("2,1", "sweep grid must be strictly increasing"),
], ids=["empty", "not-positive", "decreasing"])
def test_bad_sweep_grid_is_usage_error(capsys, two_node_case, grid, message):
    code, out, err = run(capsys, "sweep", "--case", two_node_case, "--law", "dpiac",
                         "--param", "k1", "--grid", grid)
    assert code == 2
    assert f"usage error: {message}" in err
    assert out == ""


def test_non_finite_step_is_refused_in_a_child():
    # an infinite load step sends the integrator into an endless search for
    # a step size, so the command runs in a child that a timeout stops
    proc = subprocess.run([sys.executable, "-m", "piac.cli", "simulate", "--case",
                           bundled_case_path("homogeneous10"), "--law", "gbpiac",
                           "--kind", "step", "--step", "3:inf", "--onset", "0.5",
                           "--t-end", "2"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "usage error: --step: 'inf' is not a finite number" in proc.stderr


@pytest.mark.parametrize("old, new, message", [
    ("M=1.0", "M=inf", "field M: not a finite number: 'inf'"),
    ("D=1.0", "D=nan", "field D: not a finite number: 'nan'"),
    ("alpha=1.0", "alpha=-inf", "field alpha: not a finite number: '-inf'"),
    ("K=1.0", "K=inf", "field K: not a finite number: 'inf'"),
    ("k1=1.0", "k1=nan", "gain k1: not a finite number: 'nan'"),
    ("step=1:-0.2", "step=1:inf", "step size: not a finite number: 'inf'"),
], ids=["M", "D", "alpha", "K", "k1", "step"])
def test_non_finite_case_number_is_format_error(capsys, tmp_path, old, new, message):
    case = tmp_path / "bad.case"
    case.write_text(TWO_NODE.replace(old, new, 1))
    code, out, err = run(capsys, "analyze", "--case", str(case), "--law", "dpiac")
    assert code == 2
    assert f"case format error: {case}:" in err and message in err
    assert out == ""


def test_simulate_negative_seed_is_usage_error(capsys, two_node_case):
    code, out, err = run(capsys, "simulate", "--case", two_node_case,
                         "--law", "dpiac", "--kind", "noise", "--seed", "-1",
                         "--sigma", "1:0.01", "--t-end", "2", "--burn-in", "0.5")
    assert code == 2
    assert "usage error: seed must be non-negative, got -1" in err
    assert out == ""


def test_sweep_negative_seed_is_usage_error(capsys, tmp_path):
    case = tmp_path / "noise.case"
    case.write_text(TWO_NODE.replace(
        "kind=step\nt_end=50.0\nh=0.01\nonset=2.0\nstep=1:-0.2",
        "kind=noise\nt_end=5.0\nh=0.001\nsigma=1:0.01\npaths=2\nburn_in=1.0"))
    code, out, err = run(capsys, "sweep", "--case", str(case), "--law", "dpiac",
                         "--param", "k1", "--grid", "0.5", "--sim", "noise",
                         "--seed", "-1")
    assert code == 2
    assert "usage error: seed must be non-negative, got -1" in err
    assert out == ""


def assert_stride_refused(capsys, out_file, argv, stride):
    # --h alone sets a step study's grid: --stride 5 is --h 5h
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", *argv, "--stride", stride, "--out", str(out_file)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --stride {stride}" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_simulate_stride_below_one_is_usage_error(capsys, tmp_path, stride):
    assert_stride_refused(capsys, tmp_path / "a.csv",
                          ["--case", bundled_case_path("homogeneous10"), "--law", "dpiac",
                           "--kind", "step", "--t-end", "2", "--onset", "1"], stride)


@pytest.mark.parametrize("stride", ["1", "5"])
def test_simulate_noise_refuses_stride(capsys, two_node_case, tmp_path, stride):
    assert_stride_refused(capsys, tmp_path / "a.csv",
                          ["--case", two_node_case, "--law", "dpiac", "--kind", "noise",
                           "--seed", "1", "--sigma", "1:0.01", "--t-end", "2",
                           "--burn-in", "0.5"], stride)


@pytest.mark.parametrize("argv", [
    ["--kind", "step", "--t-end", "1", "--h", "0.07", "--onset", "0.5", "--t0", "0.5"],
    ["--kind", "noise", "--seed", "1", "--sigma", "1:0.01", "--t-end", "1",
     "--h", "0.07", "--burn-in", "0.5"],
    # one step of 0.6 s past the horizon of 1 s
    ["--kind", "noise", "--seed", "1", "--sigma", "1:0.01", "--t-end", "1",
     "--h", "0.6", "--burn-in", "0.5"],
    # t_end / h overflows to inf
    ["--kind", "step", "--t-end", "1", "--h", "1e-310", "--onset", "0.5", "--t0", "0.5"],
], ids=["step", "noise", "noise-past-horizon", "too-many-steps"])
def test_simulate_t_end_off_the_step_grid_is_usage_error(capsys, tmp_path, argv):
    out_file = tmp_path / "a.csv"
    code, out, err = run(capsys, "simulate", "--case", bundled_case_path("homogeneous10"),
                         "--law", "dpiac", *argv, "--out", str(out_file))
    assert code == 2
    assert "usage error: t_end 1 is not a whole number of steps h" in err
    assert out == "" and not out_file.exists()


def test_simulate_noise_records_t_end(capsys, tmp_path):
    # decpiac: Euler-Maruyama does not resolve dpiac's loop at h = 0.07
    out_file = tmp_path / "a.csv"
    code, _, _ = run(capsys, "simulate", "--case", bundled_case_path("homogeneous10"),
                     "--law", "decpiac", "--kind", "noise", "--seed", "1",
                     "--sigma", "1:0.01", "--t-end", "0.7", "--h", "0.07",
                     "--burn-in", "0.5", "--paths", "2", "--out", str(out_file))
    assert code == 0
    last = out_file.read_text().splitlines()[-1].split(",")
    assert (last[0], float(last[1])) == ("1", 0.7)


def test_simulate_noise_records_back_from_t_end(capsys, tmp_path):
    # every 3 steps (0.09 s) does not divide the 100 steps: the rows are
    # counted back from t_end, the first at step 100 % 3 = 1
    out_file = tmp_path / "a.csv"
    code, out, err = run(capsys, "simulate", "--case", bundled_case_path("homogeneous10"),
                         "--law", "decpiac", "--kind", "noise", "--h", "0.03",
                         "--t-end", "3", "--paths", "2", "--burn-in", "1", "--seed", "1",
                         "--sigma", "3:0.01", "--out", str(out_file))
    assert code == 0, err
    assert out.startswith("E_S=")
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    times = sorted({float(t) for path, t, *_ in rows if path == "0"})
    assert len(times) == 34
    assert times == pytest.approx([0.03 + 0.09 * k for k in range(34)], rel=0, abs=1e-12)
    assert times[-1] == 3.0


def test_simulate_noise_one_path_names_the_missing_standard_error(capsys):
    code, out, _ = run(capsys, "simulate", "--case", bundled_case_path("homogeneous10"),
                       "--law", "dpiac", "--kind", "noise", "--seed", "1",
                       "--sigma", "1:0.01", "--t-end", "1", "--burn-in", "0.5",
                       "--paths", "1", "--model", "linear")
    assert code == 0
    assert re.fullmatch(r"E_S=\S+ \(se n/a\) E_C=\S+ \(se n/a\) paths=1 "
                        r"burn_in=0.5\n", out), out


@pytest.mark.parametrize("sigma, bus", [("2:0.01", "2"), ("1:0.01", "2")],
                         ids=["load-bus", "passive-bus"])
def test_simulate_noise_feeding_a_frequency_is_refused(capsys, sigma, bus):
    # load bus 2 and passive bus 1 of ieee39-like feed bus 2's frequency
    # directly; E_S would grow like 1/h. analyze refuses the same input.
    code, out, err = run(capsys, "simulate", "--case", bundled_case_path("ieee39-like"),
                         "--law", "dpiac", "--kind", "noise", "--seed", "1",
                         "--sigma", sigma, "--t-end", "2", "--burn-in", "0.5")
    assert code == 5
    assert f"the frequency at bus(es) {bus}; " in err and "--sigma" in err
    assert out == ""


@pytest.mark.parametrize("model, growth, lam, h_max", [
    ("sin", "1.349", "-234.9", "0.00852"),
    ("linear", "1.351", "-235.1", "0.00851"),
], ids=["sin", "linear"])
def test_simulate_noise_step_the_loop_cannot_resolve_is_refused(capsys, monkeypatch,
                                                                model, growth, lam,
                                                                h_max):
    # dpiac's fastest mode on ieee39-like, lambda = -235.1 at the origin, is
    # resolved by Euler-Maruyama only below h = 0.00851; at h = 0.01 the sine
    # model's bounded flows used to hide the divergence behind E_S = 6.4e4.
    # The loop is read at rest, where the sine model's line stiffnesses are
    # cos(gap) of the equilibrium's gaps: there lambda = -234.9
    import piac.sim

    argv = ["simulate", "--case", bundled_case_path("ieee39-like"), "--law", "dpiac",
            "--kind", "noise", "--seed", "1", "--sigma", "30:0.01", "--sigma",
            "35:0.01", "--t-end", "1", "--burn-in", "0.5", "--paths", "2",
            "--model", model]
    with monkeypatch.context() as m:
        m.setattr(piac.sim, "_euler_maruyama", None)
        code, out, err = run(capsys, *argv, "--h", "0.01")
    assert code == 5 and out == ""
    assert err.startswith("analysis error: Euler-Maruyama step h = 0.01 does not "
                          f"resolve the loop: max |1 + h lambda| = {growth} >= 1 at "
                          f"lambda = {lam}")
    assert err.endswith(f"the largest stable step is {h_max}\n")
    code, out, _ = run(capsys, *argv, "--h", "0.005")
    assert code == 0 and out.startswith("E_S=")


def test_simulate_noise_on_an_unstable_rest_loop_names_no_step(capsys, tmp_path):
    # every injection of ieee39-like x14: the loop at rest has an eigenvalue
    # with Re lambda > 0, which no Euler-Maruyama step resolves
    net, comm, gains, scen = load_case(bundled_case_path("ieee39-like"))
    nodes = tuple(dataclasses.replace(node, injection=14 * node.injection)
                  for node in net.nodes)
    case = tmp_path / "x14.case"
    save_case(case, PowerNetwork(nodes=nodes, edges=net.edges), comm, gains, scen)
    sigma = [arg for bus in range(30, 40) for arg in ("--sigma", f"{bus}:0.01")]
    code, out, err = run(capsys, "simulate", "--case", str(case), "--law", "dpiac",
                         "--kind", "noise", "--h", "0.005", "--t-end", "1",
                         "--burn-in", "0.5", "--paths", "2", "--seed", "1", *sigma)
    assert (code, out) == (5, "")
    assert err == ("analysis error: the loop at rest is not stable: it has the "
                   "eigenvalue lambda = 14.74+0j with Re lambda >= 0, so the "
                   "ensemble diverges at every Euler-Maruyama step h\n")


def test_sweep_noise_step_the_loop_cannot_resolve_is_refused(capsys, tmp_path):
    case = tmp_path / "noise.case"
    case.write_text(TWO_NODE.replace(
        "kind=step\nt_end=50.0\nh=0.01\nonset=2.0\nstep=1:-0.2",
        "kind=noise\nt_end=5.0\nh=0.5\nsigma=1:0.01\npaths=2\nburn_in=1.0"))
    code, out, err = run(capsys, "sweep", "--case", str(case), "--law", "dpiac",
                         "--param", "k1", "--grid", "0.5,1.0", "--sim", "noise",
                         "--seed", "11")
    assert code == 5 and out == ""
    assert "Euler-Maruyama step h = 0.5 does not resolve the loop" in err


HOM10_NOISE = ["--kind", "noise", "--seed", "1", "--sigma", "1:0.01",
               "--t-end", "1", "--burn-in", "0.5"]


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--kind", "step", "--t-end", "2", "--onset", "1", "--t0", "1.5",
      "--seed", "-5", "--paths", "3", "--sigma", "1:0.1", "--burn-in", "7"],
     "step studies do not read --seed, --paths, --sigma, --burn-in"),
    (["simulate", "--kind", "step", "--t-end", "2", "--seed", "3"],
     "step studies do not read --seed"),
    (["simulate", *HOM10_NOISE, "--step", "2:-0.1", "--onset", "0.2", "--t0", "3"],
     "noise runs do not read --step, --onset, --t0"),
    (["simulate", *HOM10_NOISE, "--t0", "0.8"], "noise runs do not read --t0"),
    (["sweep", "--param", "k1", "--grid", "1,4", "--seed", "-1",
      "--model", "linear", "--t0", "3"],
     "sweeps without --sim do not read --seed, --model, --t0"),
    (["sweep", "--param", "k1", "--grid", "1", "--model", "sin"],
     "sweeps without --sim do not read --model"),
    (["sweep", "--param", "k1", "--grid", "1", "--sim", "step", "--seed", "4"],
     "sweeps with --sim step do not read --seed"),
    # the grid sets k1, and k2 = 4 k1: the flags printed the same rows
    (["sweep", "--param", "k1", "--grid", "1", "--k1", "7", "--k2", "40"],
     "sweeps over k1 do not read --k1, --k2"),
    # refused before its value is read, which was a gain constraint (exit 4)
    (["sweep", "--param", "k1", "--grid", "1", "--k1", "-1"],
     "sweeps over k1 do not read --k1"),
    (["sweep", "--param", "k3", "--grid", "1", "--k3", "9"],
     "sweeps over k3 do not read --k3"),
], ids=["step-noise-flags", "step-seed", "noise-step-flags", "noise-t0",
        "sweep-sim-flags", "sweep-model", "sweep-step-seed", "sweep-k1-k2",
        "sweep-k1-negative", "sweep-k3"])
def test_flag_the_mode_never_reads_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, argv[0], "--case", bundled_case_path("homogeneous10"),
                         "--law", "dpiac", *argv[1:])
    assert code == 2
    assert f"usage error: {message}" in err
    assert out == ""


def test_k1_sweep_reads_only_k3(capsys, tmp_path, two_node_case):
    # every k1 and k2 of a k1 sweep comes from the grid, so a case without
    # [gains] sweeps at k3 = 0; --k3 and the case file's k3 still count
    bare = tmp_path / "bare.case"
    bare.write_text(TWO_NODE.split("[gains]")[0])
    sweep = ["sweep", "--law", "dpiac", "--param", "k1", "--grid", "0.5,2"]
    code, out, err = run(capsys, *sweep, "--case", str(bare))
    assert code == 0 and err == ""
    assert run(capsys, *sweep, "--case", two_node_case, "--k3", "0") == (code, out, "")
    at_file_k3 = run(capsys, *sweep, "--case", two_node_case)
    assert at_file_k3 == run(capsys, *sweep, "--case", str(bare), "--k3", "1")
    assert at_file_k3[1] != out


def test_sweep_noise_refuses_t0(capsys, tmp_path):
    case = tmp_path / "noise.case"
    case.write_text(TWO_NODE.replace(
        "kind=step\nt_end=50.0\nh=0.01\nonset=2.0\nstep=1:-0.2",
        "kind=noise\nt_end=2.0\nh=0.001\nsigma=1:0.01\npaths=2\nburn_in=1.0"))
    code, out, err = run(capsys, "sweep", "--case", str(case), "--law", "dpiac",
                         "--param", "k1", "--grid", "0.5", "--sim", "noise",
                         "--seed", "1", "--t0", "5")
    assert code == 2
    assert "usage error: sweeps with --sim noise do not read --t0" in err
    assert out == ""


def test_flags_without_defaults_read_as_before(capsys):
    # --t0 and sweep's --model have no argparse default, so a given value can
    # be told apart; left out, they read as 40 and sin
    case = bundled_case_path("homogeneous10")
    sweep = ["sweep", "--case", case, "--law", "dpiac", "--param", "k3",
             "--grid", "2", "--sim", "step"]
    assert run(capsys, *sweep) == run(capsys, *sweep, "--t0", "40", "--model", "sin")
    simulate = ["simulate", "--case", case, "--law", "dpiac", "--kind", "step",
                "--t-end", "41"]
    code, out, _ = run(capsys, *simulate)
    assert code == 0 and out.endswith("(t0=40)\n")
    assert run(capsys, *simulate, "--t0", "40") == (code, out, "")


def test_benchmark_commands_still_run(capsys, tmp_path):
    # every flag the benchmark passes is read by the mode it runs in; the
    # small builds pass the same flags as the full ones
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)

    def flags(ops):
        return {(op.argv[0], *(a for a in op.argv if a.startswith("--"))) for op in ops}

    for workload in workloads.WORKLOADS:
        dirs = tmp_path / f"{workload}-small", tmp_path / workload
        for d in dirs:
            d.mkdir()
        small = workloads.build(workload, 3, dirs[0], tiny=True)
        full = workloads.build(workload, 3, dirs[1])
        assert flags(small) == flags(full)
        for op in small:
            code, _, err = run(capsys, *op.argv)
            assert code == 0, (op.name, err)


@pytest.mark.parametrize("case", [bundled_case_path("ieee39-like"), "missing.case",
                                  bundled_case_path("homogeneous10")],
                         ids=["bundled", "missing", "homogeneous10"])
def test_python_m_piac_runs_the_cli(capsys, tmp_path, case):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "piac", "validate", "--case", case],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    code, out, err = run(capsys, "validate", "--case", case)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert proc.stderr == err
    assert code == (2 if case == "missing.case" else 0)


def test_parser_is_built_once(capsys, two_node_case):
    # main reuses one parser across calls and subcommands, and prints what
    # a freshly built one prints
    argvs = (["validate", "--case", two_node_case],
             ["analyze", "--case", two_node_case, "--law", "dpiac"],
             ["sweep", "--case", two_node_case, "--law", "gbpiac",
              "--param", "k1", "--grid", "1,4"],
             ["validate", "--case", two_node_case])
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert all(code == 0 and out for code, out, _ in reused)


@pytest.mark.parametrize("t0", ["0", "-1"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_t0_not_positive_is_usage_error(capsys, two_node_case, command, t0):
    # the metrics integrate over [0, t0]; an empty window has no number
    extra = (["--t-end", "3", "--onset", "1"] if command == "simulate" else
             ["--param", "k3", "--grid", "1", "--sim", "step"])
    code, out, err = run(capsys, command, "--case", two_node_case,
                         "--law", "dpiac", "--t0", t0, *extra)
    assert code == 2
    assert f"usage error: --t0 must be positive, got {t0}" in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    # the two-node study ends at 50 s
    (["simulate", "--t0", "60"], "--t0 60 lies past the last recorded time 50 s"),
    (["simulate", "--t-end", "30"], "--t0 40 lies past the last recorded time 30 s"),
    (["sweep", "--param", "k1", "--grid", "1", "--sim", "step", "--t0", "100"],
     "--t0 100 lies past the last recorded time 50 s"),
    # past the 1e-9 s slack, by less than %g shows
    (["simulate", "--t-end", "60", "--t0", "60.000000002"],
     "--t0 60.000000002 lies past the last recorded time 60 s"),
], ids=["simulate", "simulate-default-t0", "sweep", "simulate-just-past"])
def test_t0_past_the_horizon_is_refused_before_simulating(capsys, monkeypatch,
                                                          two_node_case, argv,
                                                          message):
    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "simulate_deterministic", no_study)
    code, out, err = run(capsys, argv[0], "--case", two_node_case,
                         "--law", "dpiac", *argv[1:])
    assert code == 2
    assert f"usage error: {message}" in err
    assert out == ""


def test_t0_within_the_slack_of_the_horizon_runs(capsys, two_node_case):
    # compute_metrics reads a trace as reaching t0 up to 1e-9 s short of it
    code, out, _ = run(capsys, "simulate", "--case", two_node_case, "--law",
                       "dpiac", "--t-end", "3", "--onset", "1",
                       "--t0", "3.0000000005")
    assert code == 0
    assert out.startswith("S=")


@pytest.mark.parametrize("argv, message", [
    (["--step", "99:0.1"], "--step 99:0.1: the case has no bus 99"),
    (["--step", "2:-0.1", "--step", "0:0.1"], "--step 0:0.1: the case has no bus 0"),
    (["--kind", "noise", "--seed", "1", "--sigma", "12:0.01"],
     "--sigma 12:0.01: the case has no bus 12"),
], ids=["step", "second-step", "sigma"])
def test_unknown_bus_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "simulate", "--case",
                         bundled_case_path("homogeneous10"), "--law", "dpiac", *argv)
    assert code == 2
    assert f"usage error: {message}" in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["--step", "2:0.1", "--step", "2:0.5"], "--step 2:0.5: bus 2 is named twice"),
    (["--kind", "noise", "--seed", "1", "--sigma", "1:0.01", "--sigma", "1:0.02"],
     "--sigma 1:0.02: bus 1 is named twice"),
], ids=["step", "sigma"])
def test_bus_named_twice_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "simulate", "--case",
                         bundled_case_path("homogeneous10"), "--law", "dpiac", *argv)
    assert code == 2
    assert f"usage error: {message}" in err
    assert out == ""


def test_step_flag_overrides_the_case_files_bus(monkeypatch):
    # homogeneous10 steps buses 1, 4 and 7 by -0.1; --step 1:-0.3 replaces one
    seen = []

    def study(net, comm, law, gains, scenario, **kwargs):
        seen.append(scenario.steps)
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "simulate_deterministic", study)
    with pytest.raises(RuntimeError, match="stop"):
        main(["simulate", "--case", bundled_case_path("homogeneous10"), "--law",
              "dpiac", "--step", "1:-0.3"])
    assert seen == [{1: -0.3, 4: -0.1, 7: -0.1}]


def test_onset_within_the_integrators_resolution_of_t_n_is_usage_error(capsys):
    # LSODA used to refuse the 2.2e-16 s stepped span: exit 7 after a scipy
    # warning on stderr; an onset past t_n = 2, below a t_end within its
    # slack, used to run and record nothing of the step
    for t_end, onset in (("2", "1.9999999999999998"), ("2.000000001", "2.0000000005")):
        code, out, err = run(capsys, "simulate", "--case",
                             bundled_case_path("homogeneous10"), "--law", "dpiac",
                             "--kind", "step", "--t-end", t_end,
                             "--onset", onset, "--t0", "2")
        assert code == 2
        assert (f"usage error: onset {onset} lies less than 2 eps t_n "
                "below the last recorded time t_n = 2.0") in err
        assert out == ""


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_help_prints_the_library_defaults(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"--t0 T0 end of the S/C window (default {METRICS_T0:g})" in text
    if command == "sweep":
        assert f"--model {{{','.join(MODELS)}}} default: {MODELS[0]}" in text
    else:
        args = cli._build_parser().parse_args(
            ["simulate", "--case", "c", "--law", "dpiac"])
        assert args.model == MODELS[0]


@pytest.mark.parametrize("body, message", [
    ("kind=step\nt_end=50.0\nh=0.01\nonset=2.0\nstep=1:-0.2\n"
     "sigma=2:0.5\npaths=9\nseed=4", "step scenarios take no sigma, paths, seed"),
    ("kind=step\nstep=1:-0.2\nburn_in=3", "step scenarios take no burn_in"),
    ("kind=noise\nsigma=1:0.01\nseed=1\nonset=2.0",
     "noise scenarios take no onset"),
    ("kind=noise\nsigma=1:0.01\nseed=1\nstep=1:-0.2",
     "noise scenarios take no steps"),
], ids=["step-noise-keys", "step-burn_in", "noise-onset", "noise-step"])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_case_scenario_with_the_other_kinds_keys_is_format_error(
        capsys, tmp_path, command, body, message):
    case = tmp_path / "mixed.case"
    case.write_text(TWO_NODE.replace(
        "kind=step\nt_end=50.0\nh=0.01\nonset=2.0\nstep=1:-0.2", body))
    argv = [command, "--case", str(case)]
    if command == "simulate":
        argv += ["--law", "dpiac"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert f"case format error: {case}: [scenario]: {message}" in err
    assert out == ""


def test_simulate_noise_byte_identical(capsys, two_node_case, tmp_path):
    args = ["simulate", "--case", two_node_case, "--law", "dpiac",
            "--kind", "noise", "--sigma", "1:0.01", "--t-end", "2",
            "--h", "0.001", "--paths", "2", "--burn-in", "0.5",
            "--seed", "42", "--model", "linear"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, _ = run(capsys, *args, "--out", str(f1))
    code2, _, _ = run(capsys, *args, "--out", str(f2))
    assert code1 == 0 and code2 == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_output_failure_leaves_no_partial_file(capsys, two_node_case, tmp_path):
    target = tmp_path / "nodir" / "out.csv"
    code, _, err = run(capsys, "analyze", "--case", two_node_case,
                       "--law", "dpiac", "--out", str(target))
    assert code == 2
    assert not target.exists()
    assert not target.with_name(target.name + ".tmp").exists()


@pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"),
                                 KeyboardInterrupt()])
def test_streamed_out_failure_keeps_target(capsys, monkeypatch, two_node_case,
                                           tmp_path, exc):
    # the trace streams into a temporary file; a writer that fails part way
    # leaves the file it was to replace as it was, and no temporary file
    target = tmp_path / "trace.csv"
    target.write_bytes(b"old contents\n")

    def failing(fh, trace):
        fh.write("t,node,theta,omega,eta,xi,u,mc\n0,1,")
        fh.flush()
        assert Path(fh.name) != target and Path(fh.name).stat().st_size > 0
        raise exc

    monkeypatch.setattr(cli, "write_trace_csv", failing)
    argv = ["simulate", "--case", two_node_case, "--law", "dpiac",
            "--t-end", "45", "--out", str(target)]
    if isinstance(exc, OSError):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "No space left" in err
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert target.read_bytes() == b"old contents\n"
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("kind", ["step", "noise"])
def test_streamed_out_matches_library_writer(capsys, monkeypatch, two_node_case,
                                             tmp_path, kind):
    # `--out` holds the bytes the library writer gives for the same trace, and
    # the stream position after the writer returns is the file size: the
    # benchmark counts written bytes with fh.tell()
    simulator, writer = {"step": ("simulate_deterministic", "write_trace_csv"),
                         "noise": ("simulate_stochastic", "write_ensemble_csv")}[kind]
    simulate, write = getattr(cli, simulator), getattr(cli, writer)
    made, told = [], []

    def recording_simulate(*args, **kwargs):
        made.append(simulate(*args, **kwargs))
        return made[-1]

    def recording_write(fh, traces):
        write(fh, traces)
        told.append(fh.tell())

    monkeypatch.setattr(cli, simulator, recording_simulate)
    monkeypatch.setattr(cli, writer, recording_write)
    noise = ["--sigma", "1:0.01", "--t-end", "2", "--h", "0.001", "--paths", "2",
             "--burn-in", "0.5", "--seed", "42"]
    out = tmp_path / "f.csv"
    code, _, _ = run(capsys, "simulate", "--case", two_node_case, "--law", "dpiac",
                     "--kind", kind, *(noise if kind == "noise" else []),
                     "--out", str(out))
    assert code == 0
    buf = io.StringIO()
    write(buf, made[0] if kind == "step" else made[0][0])
    assert out.read_bytes() == buf.getvalue().encode()
    assert told == [os.path.getsize(out)]


def test_sweep_rows_follow_grid_order(capsys, two_node_case):
    code, out, _ = run(capsys, "sweep", "--case", two_node_case, "--law",
                       "dpiac", "--param", "k3", "--grid", "1,2,4")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1.0, 2.0, 4.0]


def test_simulate_decpiac_without_comm(capsys, tmp_path):
    text = TWO_NODE.replace("[comm]\n1 2 l=1.0\n", "")
    case = tmp_path / "nocomm.case"
    case.write_text(text)
    code, out, _ = run(capsys, "simulate", "--case", str(case),
                       "--law", "decpiac", "--t-end", "45")
    assert code == 0
    assert "S=" in out


NO_CONTROLLERS = """
[nodes]
1 passive P=0.1
2 passive P=-0.1
[edges]
1 2 K=1.0
"""


@pytest.mark.parametrize("argv", [
    ["analyze", "--law", "gbpiac", "--selector", "u", "--k1", "1"],
    ["simulate", "--law", "decpiac", "--kind", "step", "--t-end", "2",
     "--step", "1:0.1", "--onset", "1", "--t0", "2", "--k1", "1"],
], ids=["analyze", "simulate"])
def test_case_without_controllers_is_refused(capsys, tmp_path, argv):
    # the case itself is well formed; no law has a bus to act through
    case = tmp_path / "passive.case"
    case.write_text(NO_CONTROLLERS)
    assert run(capsys, "validate", "--case", str(case))[0] == 0
    code, out, err = run(capsys, argv[0], "--case", str(case), *argv[1:])
    assert code == 5 and out == ""
    assert err == "error: network has no controller nodes: every bus is passive\n"


@pytest.mark.parametrize("failure", ["no-directory", "write"])
def test_svg_failure_leaves_no_partial_chart(capsys, monkeypatch, two_node_case,
                                              tmp_path, failure):
    # the chart is written like every output file: through a temporary file
    # renamed over the target only once it is whole
    target = tmp_path / "chart.svg"
    argv = ["sweep", "--case", two_node_case, "--law", "dpiac", "--param", "k3",
            "--grid", "1,4", "--svg"]
    if failure == "no-directory":
        target = tmp_path / "nodir" / "chart.svg"
        code, _, err = run(capsys, *argv, str(target))
        assert code == 2 and "io error" in err
        assert not target.exists()
    else:
        target.write_text("old chart\n")
        chart = cli.svgplot.svg_line_chart
        # a lone surrogate fails to encode part way through the write
        monkeypatch.setattr(cli.svgplot, "svg_line_chart",
                            lambda *a, **kw: chart(*a, **kw) + "\ud800")
        with pytest.raises(UnicodeEncodeError):
            main([*argv, str(target)])
        assert target.read_text() == "old chart\n"
    assert list(target.parent.glob("*.tmp")) == []


@pytest.mark.parametrize("numeric, analytic, rel_gap", [
    (0.1, math.nextafter(0.1, 1.0), "0"),
    (2.0, 3.0, "0.5"),
], ids=["one-ulp", "visible"])
def test_analyze_rel_gap_is_the_gap_between_the_printed_values(
        capsys, monkeypatch, two_node_case, numeric, analytic, rel_gap):
    # round-off below the 12th digit moves neither the printed norms nor
    # their gap; the report keeps the exact one
    report = piac.h2.H2Report(law="dpiac", selector="omega", numeric=numeric,
                              analytic=analytic,
                              rel_gap=abs(analytic - numeric) / max(1.0, numeric))
    assert report.rel_gap > 0
    monkeypatch.setattr(cli, "analyze", lambda *a, **kw: report)
    argv = ["analyze", "--case", two_node_case, "--law", "dpiac"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["rel_gap"] == rel_gap
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["rel_gap"] == float(rel_gap)


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--law", "dpiac"],
     "no gains: case file has no [gains] section, pass --k1 (and --k2)"),
    (["sweep", "--law", "dpiac", "--k1", "1", "--param", "k3", "--grid", "1",
      "--sim", "step"], "--sim needs a [scenario] section in the case file"),
    (["simulate", "--law", "dpiac", "--k1", "1"],
     "no scenario: case file has no [scenario] section, pass --kind"),
], ids=["gains", "sweep-scenario", "simulate-scenario"])
def test_missing_section_is_usage_error(capsys, tmp_path, argv, message):
    case = tmp_path / "bare.case"
    case.write_text(TWO_NODE.split("[gains]")[0])
    code, out, err = run(capsys, argv[0], "--case", str(case), *argv[1:])
    assert code == 2 and out == ""
    assert err == f"usage error: {message}\n"


def test_sweep_sim_of_the_other_kind_is_usage_error(capsys, two_node_case):
    code, out, err = run(capsys, "sweep", "--case", two_node_case, "--law", "dpiac",
                         "--param", "k3", "--grid", "1", "--sim", "noise",
                         "--seed", "1")
    assert code == 2 and out == ""
    assert err == "usage error: case scenario kind is step, --sim asked for noise\n"


def test_stalled_passive_newton_exits_7(capsys, tmp_path):
    # a load of 2 pu on a passive leaf behind a line of K = 1: no phase
    # carries it
    case = tmp_path / "leaf.case"
    case.write_text(TWO_NODE.split("[edges]")[0] + "3 passive P=0.0\n"
                    "[edges]\n1 2 K=1.0\n2 3 K=1.0\n[gains]\nk1=1.0\nk2=4.0\n")
    code, out, err = run(capsys, "simulate", "--case", str(case), "--law", "gbpiac",
                         "--kind", "step", "--step", "3:2", "--t-end", "2",
                         "--onset", "1", "--t0", "2")
    assert code == 7 and out == ""
    assert err.startswith("numerical failure: passive-network Newton stalled")
