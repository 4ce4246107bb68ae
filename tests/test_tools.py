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
