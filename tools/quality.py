"""Print the depth and cloud quality of a solve, started from the sweep, on
fixed scenes at several grids.

    python3 tools/quality.py [--root CHECKOUT] [--scene S] [--grid WxH]
                             [--seed S] [--outer N] [--texture-seed N]

Prints one JSON object per scene, grid and texture seed. The scenes are two
of the bench's workloads (``bench/harness.py`` `WORKLOADS`), rendered by
`build_scene`:

- ``plane+0``, ``plane+0.25``, ``plane+0.5``: the plane of
  ``refine-plane3-64`` (3 views), moved off the hypothesis sample it sits on
  by 0, 1/4 and 1/2 of a hypothesis spacing;
- ``occluder``: the near patch over a background of ``refine-occluder4-64``
  (4 views).

By default every scene runs at 64x48, 128x96 and 256x192; ``--grid WxH``
(repeatable) picks others, with the bench's focal length scaled to the
width. ``--scene`` (repeatable) picks scenes. ``--outer N`` caps refinement
at N outer iterations (0: the sweep and one mask pass only) in place of
the workload's own cap (30 on the plane, 3 on the occluder).
``--texture-seed N`` (repeatable) renders the textures from seed N in place
of the harness's `TEXTURE_SEED` (7), which the tool sets itself; with more
than one, each scene and grid gets one more line, ``"over"`` the texture
seeds, holding the ``median`` and the ``worst`` value of every number below
(the largest error, loss, step count and time; the smallest share valid,
completeness and f-score). ``--root`` points at another checkout, such as
the parent commit, whose ``src/symmvs`` and ``bench/harness.py`` are
imported in place of this one's.

A solve is the harness's `_timed_solve`: `init_depths`, `refine`,
`filter_consistent`, `depths_to_cloud` and the metrics. Each line holds:

- ``init_abs_err``, ``refined_abs_err``: the mean over views of the mean
  absolute depth error (`metrics.depth_metrics`);
- ``init_gross``, ``refined_gross``: the share of the pixels valid in both
  the estimate and the ground truth that are more than 0.5 off;
- ``init_valid``: the share of the pixels valid in the ground truth that
  the init depths hold valid;
- ``f_score``, ``completeness``: the fused cloud's f-score and
  completeness percentage against the analytic one, at a threshold of one
  hypothesis spacing;
- ``final_loss``: the full objective at the refined depths and final masks
  (the harness's `final_loss`);
- ``steps``, ``stop_reason``: the accepted descent steps and why `refine`
  stopped;
- ``solve_s``: the wall time of the solve.

The tool sets no bounds and is not part of the bench.
"""

import argparse
import dataclasses
import json
import statistics
import sys
import tempfile
from pathlib import Path

from digests import load_harness
from evalcost import _grid

GRIDS = ((64, 48), (128, 96), (256, 192))
# scene name: (bench workload, shift of its first plane in hypothesis spacings)
SCENES = {
    "plane+0": ("refine-plane3-64", 0.0),
    "plane+0.25": ("refine-plane3-64", 0.25),
    "plane+0.5": ("refine-plane3-64", 0.5),
    "occluder": ("refine-occluder4-64", 0.0),
}
GROSS = 0.5
# the numbers of a line that the summary over texture seeds reads, and
# whether a larger one is better
SUMMARY = {"init_abs_err": False, "refined_abs_err": False, "init_gross": False,
           "refined_gross": False, "init_valid": True, "f_score": True,
           "completeness": True, "final_loss": False, "steps": False,
           "solve_s": False}


def _gross(depths, gt_depths) -> float:
    """The share of the pixels valid in both maps that are more than
    `GROSS` off."""
    import numpy as np

    off = [np.abs(d.values - g.values)[d.valid & g.valid] > GROSS
           for d, g in zip(depths, gt_depths)]
    return float(np.concatenate(off).mean())


def _valid_share(depths, gt_depths) -> float:
    """The share of the ground truth's valid pixels that ``depths`` holds
    valid."""
    return float(sum((d.valid & g.valid).sum() for d, g in zip(depths, gt_depths))
                 / sum(g.valid.sum() for g in gt_depths))


def quality(harness, scene_name: str, grid: tuple, seed: int, outer) -> dict:
    """One solve of ``scene_name`` on ``grid`` = (width, height) with view
    order ``seed``; ``outer`` caps the outer iterations when not None."""
    name, shift = SCENES[scene_name]
    wl = harness.WORKLOADS[name]
    wl = dataclasses.replace(
        wl, width=grid[0], height=grid[1],
        max_outer_iters=wl.max_outer_iters if outer is None else outer)
    scene = harness.build_scene(wl, seed)
    if shift:
        # the hypotheses do not depend on the planes: move the first plane
        # by a share of the spacing the harness gives the scene
        spacing = scene.config.hypotheses.spacing
        first = dict(wl.planes[0], offset=wl.planes[0]["offset"] + shift * spacing)
        wl = dataclasses.replace(wl, planes=(first,) + wl.planes[1:])
        scene = harness.build_scene(wl, seed)
    with tempfile.TemporaryDirectory() as work_dir:
        rec, init, state, cloud = harness._timed_solve(scene, Path(work_dir))
    from symmvs import metrics  # the library of the checkout the harness imports

    cloud_m = metrics.cloud_metrics(cloud, scene.reference_cloud,
                                    scene.config.hypotheses.spacing)
    return {"scene": scene_name, "grid": f"{grid[0]}x{grid[1]}", "seed": seed,
            "texture_seed": harness.TEXTURE_SEED, "outer": wl.max_outer_iters,
            "init_abs_err": rec.quality["init_abs_err"],
            "refined_abs_err": rec.quality["refined_abs_err"],
            "init_gross": _gross(init, scene.gt_depths),
            "refined_gross": _gross(state.depths, scene.gt_depths),
            "init_valid": _valid_share(init, scene.gt_depths),
            "f_score": rec.quality["f_score"], "completeness": cloud_m.comp_pct,
            "final_loss": harness.final_loss(scene, state),
            "steps": state.iteration, "stop_reason": state.stop_reason,
            "solve_s": rec.elapsed}


def summary(lines) -> dict:
    """The median and the worst of each `SUMMARY` number over ``lines``, the
    lines of one scene and grid at several texture seeds."""
    worst = {key: (min if higher else max)(line[key] for line in lines)
             for key, higher in SUMMARY.items()}
    return {"scene": lines[0]["scene"], "grid": lines[0]["grid"],
            "seed": lines[0]["seed"], "outer": lines[0]["outer"],
            "over": [line["texture_seed"] for line in lines],
            "median": {key: statistics.median(line[key] for line in lines)
                       for key in SUMMARY},
            "worst": worst}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scene", action="append", choices=list(SCENES),
                    help="scene (repeatable; default: all)")
    ap.add_argument("--grid", type=_grid, action="append",
                    help="WxH to render each scene at (repeatable; default: "
                         + ", ".join(f"{w}x{h}" for w, h in GRIDS) + ")")
    ap.add_argument("--seed", type=int, default=7, help="view-order seed")
    ap.add_argument("--outer", type=int,
                    help="outer-iteration cap (default: the workload's)")
    ap.add_argument("--texture-seed", type=int, action="append",
                    help="texture seed of the scenes (repeatable; default: "
                         "the harness's)")
    args, harness = load_harness(ap, argv)
    if args.outer is not None and args.outer < 0:
        ap.error("--outer must be at least 0")
    for scene_name in args.scene or list(SCENES):
        for grid in args.grid or GRIDS:
            lines = []
            for texture_seed in args.texture_seed or [harness.TEXTURE_SEED]:
                harness.TEXTURE_SEED = texture_seed
                lines.append(quality(harness, scene_name, grid, args.seed,
                                     args.outer))
                print(json.dumps(lines[-1]), flush=True)
            if len(lines) > 1:
                print(json.dumps(summary(lines)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
