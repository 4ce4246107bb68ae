"""Print the cost of one loss evaluation on a bench scene: the time of a
value evaluation, of a gradient evaluation and of a mask pass, the memory
peaks of one `total_loss`, of one value evaluation and of one
`loss_gradient`, and the number of tape nodes the gradient makes.

    python3 tools/evalcost.py [--root CHECKOUT] [--workload W] [--grid WxH]
                              [--seed S] [--calls N]

Prints one JSON object per workload and grid: by default the three bench
workloads, each at its own grid. ``--grid WxH`` (repeatable) renders each
workload's scene at that grid instead, with the bench's focal length
scaled to the width. ``--root`` points at another checkout, such as the
parent commit, whose ``src/symmvs`` and ``bench/harness.py`` are imported
in place of this one's.

The scene, its hypotheses and loss weights come from ``bench/harness.py``
(`WORKLOADS`, `build_scene`), and its `TEMPERATURE` goes to `init_depths`,
as in ``tools/digests.py``. Every number is taken at the scene's `init_depths`
and their `compute_all_masks` masks:

- ``value_ms``: the median time of one value-only evaluation
  (`consistency._evaluate` with a `ViewContext` built once, as `refine`
  runs it);
- ``gradient_ms``: the median time of one `solver.loss_gradient` with that
  context;
- ``mask_ms``: the median time of one `consistency.compute_all_masks` with
  that context;
- ``total_loss_peak_mib``: the `tracemalloc` peak of one `total_loss`,
  which builds its own context;
- ``value_peak_mib``: the `tracemalloc` peak of one value-only
  `consistency._evaluate` with the context, which is built before tracing
  starts;
- ``gradient_peak_mib``: the `tracemalloc` peak of one `loss_gradient`
  with the context, which is built before tracing starts;
- ``gradient_nodes``: the number of `autodiff.Var` nodes that one
  `loss_gradient` with the context creates, read from the creation
  counter `autodiff._created` before and after: the depth leaves, every
  term's formulas, the second-order images' leaves and replays, and the
  root of each backward pass.

The three timings alternate over ``--calls`` rounds after one untimed call
of each. The tool sets no bounds and is not part of the bench.
"""

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from digests import ROOT, THREAD_VARS


def _grid(text: str) -> tuple:
    width, sep, height = text.partition("x")
    if not sep or not width.isdigit() or not height.isdigit():
        raise argparse.ArgumentTypeError(f"grid {text!r} is not WxH")
    return int(width), int(height)


def _peak(fn) -> int:
    """The `tracemalloc` peak, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cost(harness, workload, seed: int, calls: int) -> dict:
    """The evaluation cost of ``workload`` (a `harness.Workload`) with view
    order ``seed``."""
    from symmvs import autodiff, consistency, solver

    scene = harness.build_scene(workload, seed)
    views, weights = scene.views, scene.config.weights
    depths = solver.init_depths(views, scene.config.hypotheses, harness.TEMPERATURE)
    masks = consistency.compute_all_masks(views, depths, weights)
    state = consistency.SceneState(list(views), depths, masks, weights)
    ctx = consistency.ViewContext(views, weights)

    def value():
        consistency._evaluate(views, depths, masks, weights, False, ctx)

    def gradient():
        solver.loss_gradient(state, ctx)

    def mask_pass():
        consistency.compute_all_masks(views, depths, weights, ctx)

    times = {value: [], gradient: [], mask_pass: []}
    for _ in range(calls + 1):
        for fn, spent in times.items():
            t0 = time.perf_counter()
            fn()
            spent.append(time.perf_counter() - t0)
    peak = _peak(lambda: consistency.total_loss(state))
    value_peak = _peak(value)
    gradient_peak = _peak(gradient)
    # `next` takes a number itself, so the nodes in between are one fewer
    before = next(autodiff._created)
    gradient()
    nodes = next(autodiff._created) - before - 1
    return {"workload": workload.name, "seed": seed,
            "grid": f"{workload.width}x{workload.height}",
            "value_ms": 1e3 * statistics.median(times[value][1:]),
            "gradient_ms": 1e3 * statistics.median(times[gradient][1:]),
            "mask_ms": 1e3 * statistics.median(times[mask_pass][1:]),
            "total_loss_peak_mib": peak / 2**20,
            "value_peak_mib": value_peak / 2**20,
            "gradient_peak_mib": gradient_peak / 2**20,
            "gradient_nodes": nodes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ and bench/ are imported")
    ap.add_argument("--workload", action="append",
                    help="bench workload (repeatable; default: all)")
    ap.add_argument("--grid", type=_grid, action="append",
                    help="WxH to render each workload at (repeatable; "
                         "default: the workload's own)")
    ap.add_argument("--seed", type=int, default=7, help="view-order seed")
    ap.add_argument("--calls", type=int, default=7,
                    help="timed calls of each evaluation")
    args = ap.parse_args(argv)
    if args.calls < 1:
        ap.error("--calls must be at least 1")
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
    for name in args.workload or list(harness.WORKLOADS):
        wl = harness.WORKLOADS[name]
        for width, height in args.grid or [(wl.width, wl.height)]:
            sized = dataclasses.replace(wl, width=width, height=height)
            print(json.dumps(cost(harness, sized, args.seed, args.calls)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
