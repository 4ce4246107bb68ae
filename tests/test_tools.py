"""The command-line tools under ``tools/``."""

import json
import subprocess
import sys
from pathlib import Path

from symmvs.solver import STOP_REASONS

ROOT = Path(__file__).resolve().parents[1]


def test_digests_of_a_rerun_are_identical():
    # tools/digests.py states that a change keeps every output of a bench
    # solve; that needs two runs of one checkout to print the same line
    cmd = [sys.executable, str(ROOT / "tools" / "digests.py"),
           "--workload", "refine-plane3-64", "--seed", "7"]
    runs = [subprocess.run(cmd, check=True, capture_output=True, text=True,
                           timeout=300).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["workload"], record["seed"]) == ("refine-plane3-64", 7)
    assert record["stop_reason"] in STOP_REASONS and record["iteration"] > 0
    digests = {k: v for k, v in record.items()
               if k not in ("workload", "seed", "stop_reason", "iteration")}
    assert set(digests) == {"init", "init_gradient", "refined", "masks",
                            "filtered", "cloud", "history", "outer_log", "report"}
    assert all(len(v) == 64 for v in digests.values())


def test_diff_of_a_checkout_against_itself_reads_zero():
    # --diff states the largest output difference of a refactor; a
    # checkout against itself must read 0 in every float output and
    # identical in every discrete one
    cmd = [sys.executable, str(ROOT / "tools" / "digests.py"),
           "--workload", "refine-plane3-64", "--seed", "7", "--diff", str(ROOT)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=300).stdout
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["workload"], record["seed"]) == ("refine-plane3-64", 7)
    assert set(record["max_abs_diff"]) == {
        "init", "refined", "filtered", "init_gradient", "points", "colors",
        "history", "outer_log", "report"}
    assert all(v == 0.0 for v in record["max_abs_diff"].values())
    assert set(record["identical"]) == {
        "init_valid", "refined_valid", "filtered_valid", "masks", "point_count",
        "history_iterations", "stop_reason", "iteration"}
    assert all(v is True for v in record["identical"].values())


def test_evalcost_prints_one_line_per_workload_and_grid():
    cmd = [sys.executable, str(ROOT / "tools" / "evalcost.py"),
           "--workload", "refine-occluder4-64", "--grid", "16x12",
           "--calls", "2"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=300).stdout
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"workload", "seed", "grid", "value_ms",
                           "gradient_ms", "mask_ms", "total_loss_peak_mib",
                           "value_peak_mib", "gradient_peak_mib",
                           "gradient_nodes"}
    assert (record["workload"], record["seed"], record["grid"]) == (
        "refine-occluder4-64", 7, "16x12")
    assert all(record[key] > 0 for key in ("value_ms", "gradient_ms", "mask_ms",
                                           "total_loss_peak_mib",
                                           "value_peak_mib",
                                           "gradient_peak_mib"))
    # more than the four depth leaves and one pass's root, and no more than
    # the nodes of an occluder evaluation that skips no term: 4 leaves, 21
    # per pair's terms, 22 per reference view, 9 per pair's second-order
    # replay and 5 for the smoothness terms
    assert isinstance(record["gradient_nodes"], int)
    assert 5 < record["gradient_nodes"] <= 4 + 6 * 21 + 4 * 22 + 6 * 9 + 5


def test_quality_prints_one_line_per_scene_and_grid():
    cmd = [sys.executable, str(ROOT / "tools" / "quality.py"),
           "--scene", "plane+0.25", "--grid", "16x12", "--outer", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=300).stdout
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"scene", "grid", "seed", "texture_seed", "outer",
                           "init_abs_err", "refined_abs_err", "init_gross",
                           "refined_gross", "init_valid", "f_score",
                           "completeness", "final_loss", "steps", "stop_reason",
                           "solve_s"}
    assert (record["scene"], record["grid"], record["seed"], record["outer"],
            record["texture_seed"]) == ("plane+0.25", "16x12", 7, 1, 7)
    assert record["stop_reason"] in STOP_REASONS
    assert isinstance(record["steps"], int) and record["steps"] >= 0
    assert all(0.0 <= record[key] <= 1.0
               for key in ("init_gross", "refined_gross", "init_valid"))
    assert all(0.0 <= record[key] <= 100.0 for key in ("f_score", "completeness"))
    assert record["refined_abs_err"] > 0 and record["final_loss"] > 0
    assert record["solve_s"] > 0

    # several texture seeds: one line each, then their median and worst
    out = subprocess.run(cmd + ["--texture-seed", "3", "--texture-seed", "7",
                                "--texture-seed", "5"],
                         check=True, capture_output=True, text=True,
                         timeout=300).stdout
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line.get("texture_seed") for line in lines] == [3, 7, 5, None]
    assert lines[1] == {**record, "solve_s": lines[1]["solve_s"]}
    summary = lines[3]
    assert summary["over"] == [3, 7, 5]
    assert set(summary) == {"scene", "grid", "seed", "outer", "over", "median", "worst"}
    for key, values in ((k, [line[k] for line in lines[:3]]) for k in summary["median"]):
        assert summary["median"][key] == sorted(values)[1]
        worst = min if key in ("init_valid", "f_score", "completeness") else max
        assert summary["worst"][key] == worst(values)
