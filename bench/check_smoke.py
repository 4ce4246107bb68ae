"""Smoke check of the benchmark itself.

    python3 bench/check_smoke.py

Runs the smallest workload at reduced length, untraced on a held-out seed
and traced on the default seed, and checks that:

- the last line is the result object, every solve passed, and every metric
  in BENCHMARK.json is printed by name with its unit (also as a text line);
- the traced run reproduces the baseline counts of the quick-start scene
  (93 value and 21 gradient evaluations, 20 accepted steps, 6 outer
  iterations at seed 7);
- a traced entry point that no longer exists stops the run with an error
  naming it;
- without the library sources the benchmark exits non-zero and prints no
  result.

Exits 0 when every check holds. Takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "refine-plane3-64"
HELD_OUT_SEED = 11  # the untraced run; the traced run uses the default seed 7
BASELINE = {
    "consistency.evaluate.calls": 93,
    "consistency.evaluate_grad.calls": 21,
    "solver.accepted_steps": 20,
    "solver.outer_iters": 6,
    "solver.stop": 1,
}


def run_bench(cwd: Path, trace: int, seed: int = 7):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOAD, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, trace: int, seed: int, errors: list) -> dict:
    proc = run_bench(ROOT, trace, seed)
    if proc.returncode != 0:
        errors.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"trace {trace}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        errors.append(f"trace {trace}: solves failed: {lines[:-1]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        errors.append(f"trace {trace}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"]:
            errors.append(f"trace {trace}: {m['name']} unit {entry.get('unit')!r} "
                          f"!= {m['unit']!r}")
        if not any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines):
            errors.append(f"trace {trace}: no text line for {m['name']}")
    return {k: v["value"] for k, v in got.items()}


def check_missing_entry_point(errors: list):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import symmvs.consistency
    import tracer

    saved = list(tracer.SPANS)
    tracer.SPANS.append(("symmvs.consistency", "_renamed_away", "x.y"))
    try:
        tracer.Tracer().install()
        errors.append("a missing entry point did not stop the tracer")
    except tracer.MissingEntryPoint as exc:
        if "symmvs.consistency._renamed_away" not in str(exc):
            errors.append(f"missing entry point error does not name it: {exc}")
    finally:
        tracer.SPANS[:] = saved
    if symmvs.consistency._evaluate.__name__ != "_evaluate":
        errors.append("a failed install left a wrapper in place")


def check_without_sources(errors: list):
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without sources: exit {proc.returncode}, "
                      f"stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    check_result(spec, 0, HELD_OUT_SEED, errors)
    layer = check_result(spec, 1, 7, errors)
    for name, want in BASELINE.items():
        if layer and layer.get(name) != want:
            errors.append(f"traced {name} = {layer.get(name)}, baseline {want}")
    check_missing_entry_point(errors)
    check_without_sources(errors)
    for e in errors:
        print("FAIL", e)
    print("smoke check:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
