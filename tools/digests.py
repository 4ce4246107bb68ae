"""Print sha256 digests of every output of a bench solve, to check that a
change keeps them byte-identical.

    python3 tools/digests.py [--root CHECKOUT] [--workload W] [--seed S]

Prints one JSON object per workload and seed: by default the three bench
workloads at seeds 7 and 13. ``--root`` points at another checkout, such
as the parent commit, whose ``src/symmvs`` and ``bench/harness.py`` are
imported in place of this one's; comparing the two outputs line by line
states the largest output difference of a refactor as 0, or shows the
first output that moved.

Each scene, its hypotheses, solver config and sweep temperature come from
``bench/harness.py`` (`WORKLOADS`, `build_scene`, `TEMPERATURE`). The solve
is the harness's: `init_depths`, then `refine` of a `SceneState` on the init
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
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 13)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


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


def _depths(depths) -> str:
    return _sha(*(a for d in depths for a in (d.values, d.valid)))


def digests(harness, workload: str, seed: int) -> dict:
    """The digests of one solve of ``workload`` with view order ``seed``."""
    from symmvs import consistency, fusion, solver

    scene = harness.build_scene(harness.WORKLOADS[workload], seed)
    views, config = scene.views, scene.config
    hyp, weights = config.hypotheses, config.weights
    init = solver.init_depths(views, hyp, harness.TEMPERATURE)
    out = {"workload": workload, "seed": seed, "init": _depths(init)}
    masks = consistency.compute_all_masks(views, init, weights)
    at_init = consistency.SceneState(list(views), init, masks, weights)
    out["init_gradient"] = _sha(*solver.loss_gradient(at_init))
    state = consistency.SceneState(list(views), init, {}, weights)
    state = solver.refine(state, config)
    out["refined"] = _depths(state.depths)
    out["masks"] = _sha(*(a for key in sorted(state.masks)
                          for a in (key, state.masks[key].valid)))
    filtered = fusion.filter_consistent(state.depths, views, hyp.spacing)
    cloud = fusion.depths_to_cloud(filtered, views)
    out["filtered"] = _depths(filtered)
    out["cloud"] = _sha(cloud.points, cloud.colors)
    out["history"] = _sha(state.history)
    out["outer_log"] = _sha(state.outer_log)
    out["report"] = _sha(consistency.total_loss(state).report_lines())
    out["stop_reason"] = state.stop_reason
    out["iteration"] = state.iteration
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ and bench/ are imported")
    ap.add_argument("--workload", action="append",
                    help="bench workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, action="append",
                    help=f"view-order seed (repeatable; default: {SEEDS})")
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
    for workload in args.workload or list(harness.WORKLOADS):
        for seed in args.seed or SEEDS:
            print(json.dumps(digests(harness, workload, seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
