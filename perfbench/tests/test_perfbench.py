"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

import piac.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _piac_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "piac" or name.startswith("piac.")}


def _tiny_ops(workload, tmp_path):
    ops = workloads.build(workload, 5, tmp_path, tiny=True)
    workloads.validate(ops)
    return ops


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_tracer_restores_every_wrapped_attribute():
    before = _piac_namespaces()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            patched = {(mod.__name__, name) for mod, name, _ in tracer.patched}
            # every target is wrapped, also where another module imported it
            for module, attr, _ in TARGETS:
                assert (module, attr) in patched
            assert ("piac.cli", "analyze") in patched
            assert ("piac.sim", "assemble_dpiac") in patched
            assert piac.cli.analyze is not before["piac.cli"]["analyze"]
            raise RuntimeError("leave the block early")
    after = _piac_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(workload, tmp_path):
    ops = _tiny_ops(workload, tmp_path)
    tracer = Tracer()
    for op in ops:
        plain = run.run_op(piac.cli.main, op)
        traced = run.run_op(piac.cli.main, op, tracer=tracer)
        assert plain.error is None and traced.error is None, op.name
        assert plain.digest == traced.digest, op.name
    assert tracer.stats["casefile.load_case.calls"] == len(ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_reports_every_end_to_end_metric(workload, capsys):
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "0",
                     "--trace", "0", "--tiny"])
    assert code == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_traced_run_reports_overhead_and_every_layer_metric(capsys):
    code = run.main(["--workload", "sim", "--seed", "2", "--seconds", "0",
                     "--trace", "1", "--tiny"])
    assert code == 0
    result = _last_json(capsys)
    assert result["correct"] and result["attempted"] == 2 * 9
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert "trace.overhead_pct" in metrics
    assert metrics["sim.em.path_steps"]["value"] > 0
    assert metrics["sim.solve_ivp.nfev"]["value"] > 0
    assert metrics["h2.lyapunov_solve.dense.calls"]["value"] == 0


def test_oracle_rejects_a_wrong_norm(tmp_path):
    op = next(op for op in _tiny_ops("h2", tmp_path)
              if op.name == "analyze-h10-dpiac-u")
    assert checks.check(op, _stdout_of(op), None, None) is None
    header, row = _stdout_of(op).splitlines()
    fields = row.split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-6))
    assert "numeric" in checks.check(op, f"{header}\n{','.join(fields)}\n", None, None)


def test_oracle_rejects_a_result_off_the_stored_reference(tmp_path):
    op = next(op for op in _tiny_ops("sim", tmp_path) if op.name == "noise-h10-linear")
    got = checks.parse_noise(_stdout_of(op))
    same = {op.name: {"E_S": got["E_S"], "E_C": got["E_C"]}}
    assert checks.check(op, _stdout_of(op), None, same) is None
    moved = {op.name: {"E_S": got["E_S"] * (1 + 1e-6), "E_C": got["E_C"]}}
    assert "E_S" in checks.check(op, _stdout_of(op), None, moved)


def _stdout_of(op):
    result = io.StringIO()
    with contextlib.redirect_stdout(result):
        assert piac.cli.main(list(op.argv)) == 0
    return result.getvalue()


def test_stored_reference_matches_the_generated_inputs(tmp_path):
    stored = json.loads(checks.REFERENCE.read_text())
    assert sorted(stored) == sorted(workloads.SIM_PARTS)
    for variant in range(workloads.N_VARIANTS):
        workdir = tmp_path / str(variant)
        workdir.mkdir()
        ops = workloads.build("sim", variant, workdir)
        want = {}
        for part in workloads.SIM_PARTS:
            assert sorted(stored[part], key=int) == [str(v) for v in
                                                     range(workloads.N_VARIANTS)]
            want.update(stored[part][str(variant)]["ops"])
        assert checks.load_reference("sim", variant, ops) == want
        assert set(want) == {op.name for op in ops}


def test_output_that_changes_between_passes_fails(monkeypatch):
    monkeypatch.setattr(checks, "check", lambda *args: None)
    counter = iter(range(10))

    def drifting_main(argv):
        print(next(counter))
        return 0

    op = workloads.Op("drifting", "analyze", (), "no.case", "dpiac")
    first, second = run.measure(drifting_main, [op], None, seconds=0, trace=True)
    assert first.results[0].error is None
    assert second.results[0].error == "output differs from the first pass"


def test_untraced_run_fills_its_window_and_medians_every_op(monkeypatch):
    monkeypatch.setattr(checks, "check", lambda *args: None)
    clock = iter(range(1000))
    monkeypatch.setattr(run.time, "perf_counter", lambda: float(next(clock)))
    ops = [workloads.Op(name, "analyze", (), "no.case", "dpiac") for name in "abc"]
    # every reading of the clock advances it by one second, so each op takes
    # one, and the op that ends past 20 s is the first of the third pass
    passes = run.measure(lambda argv: 0, ops, None, seconds=20, trace=False)
    assert [len(p.results) for p in passes] == [3, 3, 1]
    assert all(r.seconds == 1.0 for p in passes for r in p.results)
    metrics = run.end_to_end(passes, [0.5])
    assert metrics["run_s"] == (3.0, "s")
    assert metrics["op_gmean_ms"] == (1000.0, "ms")
