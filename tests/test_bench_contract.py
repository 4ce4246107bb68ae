"""The benchmark's tracer against the library it wraps.

`bench/tracer.py` counts value and gradient evaluations apart by reading
``with_grad`` from the fifth positional argument of
`consistency._evaluate`. If that argument moved, gradient evaluations
would be counted as value evaluations without any error, so this test
runs the unchanged tracer around one of each.
"""

import importlib.util
from pathlib import Path

from symmvs import compute_all_masks, total_loss
from symmvs.consistency import SceneState
from symmvs.solver import loss_gradient


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_value_and_gradient_evaluations_apart(plane_scene):
    views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                          plane_scene["weights"])
    state = SceneState(views, gt, compute_all_masks(views, gt, weights), weights)
    with load_tracer().Tracer() as tracer:
        total_loss(state)
        loss_gradient(state)
    stats = tracer.take()
    assert stats["consistency.evaluate"].calls == 1
    assert stats["consistency.evaluate_grad"].calls == 1
