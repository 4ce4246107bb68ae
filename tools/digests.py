"""Print sha256 digests of every output of a bench solve, to check that a
change keeps them byte-identical, or the largest differences between the
outputs of two checkouts.

    python3 tools/digests.py [--root CHECKOUT] [--workload W] [--seed S]
    python3 tools/digests.py --diff OTHER [--root CHECKOUT] [--workload W] [--seed S]

Prints one JSON object per workload and seed: by default the three bench
workloads at seeds 7 and 13. ``--root`` points at another checkout, such
as the parent commit, whose ``src/symmvs`` and ``bench/harness.py`` are
imported in place of this one's; comparing the two outputs line by line
states the largest output difference of a refactor as 0, or shows the
first output that moved.

``--diff OTHER`` solves each workload and seed in ``--root`` and in the
checkout OTHER (in a child process, so the two libraries never share one)
and prints, in place of the digests, the largest absolute difference of
every float output under ``max_abs_diff`` (null where the two outputs
differ in shape) and whether every discrete output is identical under
``identical``: validity, masks, ``stop_reason``, ``iteration`` and the
point count. A refactor that reorders floating-point work states its
largest output difference from these lines.

Each scene, its hypotheses and solver config come from ``bench/harness.py``
(`WORKLOADS`, `build_scene`); its `TEMPERATURE` is passed to `init_depths`
as the harness passes it, for checkouts whose sweep still reads it. The
solve is the harness's: `init_depths`, then `refine` of a `SceneState` on the init
depths, then `filter_consistent` and `depths_to_cloud`. Digested are the
init depths and validity, `loss_gradient` at the init depths and their
`compute_all_masks` masks, the refined depths and validity, every final mask
in key order, the filtered depths with the fused points and colours,
`history`, `outer_log` and `total_loss(...).report_lines()`; `stop_reason`
and `iteration` are printed verbatim. Only those library names are used,
so any checkout that has them can be compared.
"""

import argparse
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 13)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEPTH_OUTPUTS = ("init", "refined", "filtered")


def _sha(*parts) -> str:
    """Digest of arrays (dtype, shape and bytes) and of the repr of
    anything else; a float's repr round-trips, so it keeps every bit."""
    import numpy as np  # loaded after `main` has set the thread variables

    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _depths(depths) -> list:
    return [(d.values, d.valid) for d in depths]


def solve(harness, workload: str, seed: int) -> dict:
    """Every output of one solve of ``workload`` with view order ``seed``,
    as numpy arrays and Python values only, so it unpickles without the
    library."""
    from symmvs import consistency, fusion, solver

    scene = harness.build_scene(harness.WORKLOADS[workload], seed)
    views, config = scene.views, scene.config
    hyp, weights = config.hypotheses, config.weights
    init = solver.init_depths(views, hyp, harness.TEMPERATURE)
    out = {"workload": workload, "seed": seed, "init": _depths(init)}
    masks = consistency.compute_all_masks(views, init, weights)
    at_init = consistency.SceneState(list(views), init, masks, weights)
    out["init_gradient"] = list(solver.loss_gradient(at_init))
    state = consistency.SceneState(list(views), init, {}, weights)
    state = solver.refine(state, config)
    out["refined"] = _depths(state.depths)
    out["masks"] = [(key, state.masks[key].valid) for key in sorted(state.masks)]
    filtered = fusion.filter_consistent(state.depths, views, hyp.spacing)
    cloud = fusion.depths_to_cloud(filtered, views)
    out["filtered"] = _depths(filtered)
    out["cloud"] = (cloud.points, cloud.colors)
    out["history"] = state.history
    out["outer_log"] = state.outer_log
    out["report"] = consistency.total_loss(state).report_lines()
    out["stop_reason"] = state.stop_reason
    out["iteration"] = state.iteration
    return out


def digests(out: dict) -> dict:
    """The digest line of one `solve`."""
    line = {"workload": out["workload"], "seed": out["seed"]}
    line["init"] = _sha(*(a for d in out["init"] for a in d))
    line["init_gradient"] = _sha(*out["init_gradient"])
    line["refined"] = _sha(*(a for d in out["refined"] for a in d))
    line["masks"] = _sha(*(a for m in out["masks"] for a in m))
    line["filtered"] = _sha(*(a for d in out["filtered"] for a in d))
    line["cloud"] = _sha(*out["cloud"])
    for key in ("history", "outer_log", "report"):
        line[key] = _sha(out[key])
    line["stop_reason"] = out["stop_reason"]
    line["iteration"] = out["iteration"]
    return line


def _report_values(lines) -> tuple:
    """The loss report as (names, float values); the ``skipped`` line is a
    name."""
    names, values = [], []
    for line in lines:
        name, _, value = line.partition(" = ")
        if name == "skipped":
            names.append(line)
        else:
            names.append(name)
            values.append(float(value))
    return names, values


def _max_abs(a, b):
    """Largest |a - b| over equally shaped float arrays (0 where both are
    NaN or equal infinities; None reads as a NaN); None when the shapes
    differ."""
    import numpy as np

    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return None
    if a.size == 0:
        return 0.0
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        return float(np.where(same, 0.0, np.abs(a - b)).max())


def _max_abs_all(xs, ys):
    """`_max_abs` over two lists of arrays; None if their lengths or the
    shapes of any pair differ."""
    if len(xs) != len(ys):
        return None
    diffs = [_max_abs(x, y) for x, y in zip(xs, ys)]
    return None if None in diffs else max(diffs, default=0.0)


def _same_arrays(xs, ys) -> bool:
    import numpy as np

    return len(xs) == len(ys) and all(
        np.shape(x) == np.shape(y) and np.array_equal(x, y) for x, y in zip(xs, ys))


def diff(a: dict, b: dict) -> dict:
    """The largest float differences and the discrete identities between
    two `solve` outputs of one workload and seed."""
    line = {"workload": a["workload"], "seed": a["seed"]}
    delta, same = {}, {}
    for key in DEPTH_OUTPUTS:
        delta[key] = _max_abs_all([v for v, _ in a[key]], [v for v, _ in b[key]])
        same[key + "_valid"] = _same_arrays([m for _, m in a[key]],
                                            [m for _, m in b[key]])
    delta["init_gradient"] = _max_abs_all(a["init_gradient"], b["init_gradient"])
    (pa, ca), (pb, cb) = a["cloud"], b["cloud"]
    delta["points"] = _max_abs(pa, pb)
    delta["colors"] = _max_abs(ca, cb)
    delta["history"] = _max_abs([f for _, f in a["history"]],
                                [f for _, f in b["history"]])
    keys_a = [sorted(e) for e in a["outer_log"]]
    delta["outer_log"] = (
        _max_abs([[e[k] for k in sorted(e)] for e in a["outer_log"]],
                 [[e[k] for k in sorted(e)] for e in b["outer_log"]])
        if keys_a == [sorted(e) for e in b["outer_log"]] else None)
    (names_a, values_a), (names_b, values_b) = (_report_values(a["report"]),
                                                _report_values(b["report"]))
    delta["report"] = _max_abs(values_a, values_b) if names_a == names_b else None
    same["masks"] = ([k for k, _ in a["masks"]] == [k for k, _ in b["masks"]]
                     and _same_arrays([m for _, m in a["masks"]],
                                      [m for _, m in b["masks"]]))
    same["point_count"] = len(pa) == len(pb)
    same["history_iterations"] = ([i for i, _ in a["history"]]
                                  == [i for i, _ in b["history"]])
    same["stop_reason"] = a["stop_reason"] == b["stop_reason"]
    same["iteration"] = a["iteration"] == b["iteration"]
    line["max_abs_diff"] = delta
    line["identical"] = same
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ and bench/ are imported")
    ap.add_argument("--workload", action="append",
                    help="bench workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, action="append",
                    help=f"view-order seed (repeatable; default: {SEEDS})")
    ap.add_argument("--diff", type=Path, metavar="OTHER",
                    help="print the largest output differences from checkout "
                         "OTHER in place of the digests")
    ap.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # One BLAS/OpenMP thread, set before numpy loads, as the bench does.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import harness

    unknown = set(args.workload or ()) - set(harness.WORKLOADS)
    if unknown:
        ap.error(f"unknown workload {sorted(unknown)[0]!r}; the bench has "
                 f"{', '.join(harness.WORKLOADS)}")
    runs = [(w, s) for w in args.workload or list(harness.WORKLOADS)
            for s in args.seed or SEEDS]
    if args.dump is not None:
        # the other side of a --diff: every solve's outputs, pickled
        args.dump.write_bytes(pickle.dumps([solve(harness, w, s) for w, s in runs]))
        return 0
    if args.diff is None:
        for w, s in runs:
            print(json.dumps(digests(solve(harness, w, s))), flush=True)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "other.pkl"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--root", str(args.diff.resolve()), "--dump", str(dump)]
        for w in args.workload or ():
            cmd += ["--workload", w]
        for s in args.seed or ():
            cmd += ["--seed", str(s)]
        subprocess.run(cmd, check=True)
        others = pickle.loads(dump.read_bytes())
    for (w, s), other in zip(runs, others):
        print(json.dumps(diff(solve(harness, w, s), other)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
