import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from piac import (LAWS, GainSchedule, OutputSelector, analyze, build_laplacian,
                  bundled_case_path, h2_dpiac_analytic, load_case, save_case,
                  spectral_decompose)
import piac.cli as cli
import piac.h2
from piac.cli import main
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


def test_analyze_mixed_network_rejected(capsys):
    # buses without rotational states have no linearized closed loop; the
    # simulation path is the supported route for such cases
    code, _, err = run(capsys, "analyze", "--case",
                       bundled_case_path("ieee39-like"), "--law", "dpiac")
    assert code == 5
    assert "machine-only" in err


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
    code, _, err = run(capsys, "analyze", "--case", het_case,
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


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_simulate_stride_below_one_is_usage_error(capsys, stride):
    code, _, err = run(capsys, "simulate", "--case",
                       bundled_case_path("homogeneous10"), "--law", "dpiac",
                       "--kind", "step", "--t-end", "2", "--onset", "1",
                       "--stride", stride)
    assert code == 2
    assert f"usage error: --stride must be at least 1, got {stride}" in err


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
