"""Command-line surface tying the pipeline together.

Subcommands: synth, sweep, optimize, fuse, eval-depth, eval-cloud.
Exit codes: 0 success, 1 input error, 2 refinement flagged as diverged.
``optimize`` prints why refinement stopped on stderr.
Runs are deterministic, so identical invocations write identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import consistency, fileio, fusion, metrics, scenegen, solver
from .errors import SymmvsError
from .geometry import DepthHypotheses
from .photometry import LossWeights


# The hypothesis count of `sweep` and `optimize` when no flag or run config sets one
HYP_COUNT = 64


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="symmvs", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="render a synthetic scene into a bundle")
    sp.add_argument("scene_cfg")
    sp.add_argument("out_dir")

    sp = sub.add_parser("sweep", help="plane-sweep initialization only")
    sp.add_argument("bundle")
    sp.add_argument("out_dir")
    sp.add_argument("--hyp-count", type=int, default=HYP_COUNT)

    sp = sub.add_parser("optimize", help="full pipeline: init + refinement")
    sp.add_argument("bundle")
    sp.add_argument("out_dir")
    sp.add_argument("--config", default=None, help="run config file")

    sp = sub.add_parser("fuse", help="filter depth maps and fuse a point cloud")
    sp.add_argument("depth_dir")
    sp.add_argument("bundle")
    sp.add_argument("out_ply")
    sp.add_argument("--tau", type=float, default=None,
                    help="agreement threshold (default: the bundle's "
                         "depth_interval, one hypothesis spacing)")
    sp.add_argument("--min-views", type=int, default=2)
    sp.add_argument("--ascii", action="store_true")

    sp = sub.add_parser("eval-depth", help="depth metrics of PFMs against GT PFMs")
    sp.add_argument("pred_dir")
    sp.add_argument("gt_dir")

    sp = sub.add_parser("eval-cloud", help="cloud metrics of a PLY against a GT PLY")
    sp.add_argument("pred_ply")
    sp.add_argument("gt_ply")
    sp.add_argument("--threshold", type=float, default=1.0)
    return p


def _hypotheses(d_min: float, d_interval: float, count: int) -> DepthHypotheses:
    return DepthHypotheses(d_min, d_min + d_interval * (count - 1), count)


def _cmd_synth(args) -> int:
    spec, d_min, d_interval = fileio.read_scene_config(args.scene_cfg)
    views, gt_depths, _ = scenegen.render_scene(spec)
    fileio.write_bundle(args.out_dir, views, d_min, d_interval, gt_depths)
    print(f"wrote bundle with {len(views)} views to {args.out_dir}")
    return 0


def _depth_path(directory, name) -> Path:
    """The depth map file of the bundle's view ``name`` in ``directory``,
    which `sweep` and `optimize` write and `fuse` reads: ``view_NNNN``
    gives ``depth_NNNN.pfm``, the name `eval-depth` pairs with
    ``view_NNNN_gt.pfm``."""
    return Path(directory) / f"depth_{name.removeprefix('view_')}.pfm"


def _write_depths(out_dir, bundle, depths) -> Path:
    """Write the depth map of each view of ``bundle`` into ``out_dir``,
    created if needed, and return its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, d in zip(fileio.view_names(bundle), depths):
        fileio.write_pfm(_depth_path(out, name), d)
    return out


def _cmd_sweep(args) -> int:
    DepthHypotheses.check_count(args.hyp_count, "--hyp-count")
    views, d_min, d_interval, _ = fileio.load_bundle(args.bundle)
    hyp = _hypotheses(d_min, d_interval, args.hyp_count)
    depths = solver.init_depths(views, hyp)
    out = _write_depths(args.out_dir, args.bundle, depths)
    print(f"wrote {len(depths)} depth maps to {out}")
    return 0


_HISTORY_COLUMNS = ("iter", "total", *(kind.name for kind in consistency.TERMS))


def _cmd_optimize(args) -> int:
    views, d_min, d_interval, _ = fileio.load_bundle(args.bundle)
    weights = LossWeights()
    solver_kw = {}
    if args.config is not None:
        weights, solver_kw = fileio.read_run_config(args.config)
    hyp_count = solver_kw.pop("hyp_count", HYP_COUNT)
    config = solver.SolverConfig(
        hypotheses=_hypotheses(d_min, d_interval, hyp_count),
        weights=weights,
        **solver_kw,
    )
    state = solver.run_pipeline(views, config)

    out = _write_depths(args.out_dir, args.bundle, state.depths)
    for (i, j), mask in sorted(state.masks.items()):
        fileio.write_mask_pgm(out / f"mask_{i}_{j}.pgm", mask.valid)
    rows = [",".join(_HISTORY_COLUMNS)]
    for entry in state.outer_log:
        rows.append(",".join(f"{entry[key]:.17g}" for key in _HISTORY_COLUMNS))
    (out / "loss_history.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    lines = consistency.total_loss(state).report_lines()
    lines.append(f"stop_reason = {state.stop_reason}")
    (out / "loss_report.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"refinement stopped: {state.stop_reason}", file=sys.stderr)
    if state.diverged:
        print("refinement diverged; best state written", file=sys.stderr)
        return 2
    print(f"optimized {len(views)} views in {len(state.outer_log)} outer iterations")
    return 0


def _cmd_fuse(args) -> int:
    views, _, d_interval, _ = fileio.load_bundle(args.bundle)
    depths = []
    for name in fileio.view_names(args.bundle):
        path = _depth_path(args.depth_dir, name)
        if not path.exists():
            raise FileNotFoundError(str(path))
        depths.append(fileio.read_pfm(path))
    tau = args.tau if args.tau is not None else d_interval
    filtered = fusion.filter_consistent(depths, views, tau, args.min_views)
    cloud = fusion.depths_to_cloud(filtered, views)
    fileio.write_ply(args.out_ply, cloud, binary=not args.ascii)
    print(f"fused {len(cloud)} points into {args.out_ply}")
    return 0


def _cmd_eval_depth(args) -> int:
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    pred_files = sorted(pred_dir.glob("*.pfm"))
    if not pred_files:
        raise FileNotFoundError(f"no PFM files in {pred_dir}")
    rows = []
    for pf in pred_files:
        names = (pf.name, pf.name.replace("depth_", "view_").replace(".pfm", "_gt.pfm"))
        gt_path = next((gt_dir / n for n in names if (gt_dir / n).exists()), None)
        if gt_path is None:
            raise FileNotFoundError(f"missing ground truth for {pf.name}: "
                                    f"{gt_dir} holds neither {' nor '.join(names)}")
        m = metrics.depth_metrics(fileio.read_pfm(pf), fileio.read_pfm(gt_path))
        print(f"[{pf.name}]")
        for line in m.report_lines():
            print("  " + line)
        rows.append(m)
    if len(rows) > 1:
        mean_abs_rel = float(np.mean([m.abs_rel for m in rows]))
        print(f"mean_abs_rel = {mean_abs_rel:.17g}")
    return 0


def _cmd_eval_cloud(args) -> int:
    pred = fileio.read_ply(args.pred_ply)
    gt = fileio.read_ply(args.gt_ply)
    m = metrics.cloud_metrics(pred, gt, args.threshold)
    for line in m.report_lines():
        print(line)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "fuse": _cmd_fuse,
    "eval-depth": _cmd_eval_depth,
    "eval-cloud": _cmd_eval_cloud,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, SymmvsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
