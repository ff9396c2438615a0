"""Regenerate ``reference.json``: the stored step and noise outputs.

    python3 perfbench/make_reference.py

Runs every seed variant of the ``sim`` workload once through the CLI and
stores S, C (step studies) and E_S, E_C (noise studies) per op, in one part
per kind of study, with a digest of the inputs that produced each part. Regenerate only when the workloads change or a
change of results is intended and explained: the benchmark checks every later
commit against these values.
"""

import contextlib
import io
import json
import sys

import run


def main() -> int:
    run.pin_environment()
    sys.path.insert(0, str(run.ROOT / "src"))
    import checks
    import workloads
    from piac.cli import main as piac_main

    parse = {"step": checks.parse_step, "noise": checks.parse_noise}
    reference = {part: {} for part in workloads.SIM_PARTS}
    for variant in range(workloads.N_VARIANTS):
        with run.scratch_dir() as workdir:
            ops = workloads.build("sim", variant, workdir)
            for part, command in workloads.SIM_PARTS.items():
                part_ops = [op for op in ops if op.command == command]
                values = {}
                for op in part_ops:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = piac_main(list(op.argv))
                    if code != 0:
                        raise SystemExit(f"{op.name} exited with {code}")
                    parsed = parse[part](out.getvalue())
                    values[op.name] = {k: parsed[k] for k in parsed if k != "paths"}
                reference[part][str(variant)] = {
                    "inputs": workloads.inputs_digest(part_ops), "ops": values}
                print(f"{part} variant {variant}: {values}", file=sys.stderr)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
