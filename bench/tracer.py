"""Span tracing for the benchmark, installed from outside the library.

`Tracer.install` swaps a timing wrapper onto the module attribute of each
layer entry point in `SPANS`. The library itself is not changed: the wrapper
replaces every binding of the original function across the loaded
``symmvs.*`` modules, so calls through ``module.fn``, through a bare name
inside the defining module, and through a ``from .x import fn`` alias are all
timed. A missing entry point is an error that names it, never a silent zero.

Spans nest through a stack: a span's ``self_s`` is its duration minus the
time of the traced spans it directly contains.
"""

from __future__ import annotations

import importlib
import sys
import time


class MissingEntryPoint(RuntimeError):
    """A traced layer entry point no longer exists in the library."""


# (module, attribute, span name). An attribute path with a dot names a
# method on a class. `consistency._evaluate` is private, but it is the one
# boundary that both value-only and gradient evaluations cross; its span
# name is chosen per call from ``with_grad`` (see `Tracer._span_name`).
SPANS = [
    ("symmvs.scenegen", "render_scene", "scenegen.render_scene"),
    ("symmvs.volume", "build_cost_volume", "volume.build_cost_volume"),
    ("symmvs.volume", "smooth_cost_volume", "volume.smooth_cost_volume"),
    ("symmvs.volume", "regress_depth", "volume.regress_depth"),
    ("symmvs.geometry", "bilinear_sample", "geometry.bilinear_sample"),
    ("symmvs.geometry", "plane_homography", "geometry.plane_homography"),
    ("symmvs.geometry", "synth_values", "geometry.synth_values"),
    ("symmvs.geometry", "warp_depth_values", "geometry.warp_depth_values"),
    ("symmvs.geometry", "view_rays", "geometry.view_rays"),
    ("symmvs.photometry", "unary_comparator", "photometry.unary_comparator"),
    ("symmvs.photometry", "census_transform", "photometry.census_transform"),
    ("symmvs.photometry", "ssim_map", "photometry.ssim_map"),
    ("symmvs.photometry", "smoothness_term", "photometry.smoothness_term"),
    ("symmvs.autodiff", "Var.backward", "autodiff.backward"),
    ("symmvs.autodiff", "bilinear", "autodiff.bilinear"),
    ("symmvs.autodiff", "box_sum3", "autodiff.box_sum3"),
    ("symmvs.consistency", "_evaluate", "consistency.evaluate"),
    ("symmvs.consistency", "compute_all_masks", "consistency.compute_all_masks"),
    ("symmvs.solver", "init_depths", "solver.init_depths"),
    ("symmvs.solver", "refine", "solver.refine"),
    ("symmvs.solver", "loss_gradient", "solver.loss_gradient"),
    ("symmvs.fusion", "filter_consistent", "fusion.filter_consistent"),
    ("symmvs.fusion", "depths_to_cloud", "fusion.depths_to_cloud"),
    ("symmvs.metrics", "cloud_metrics", "metrics.cloud_metrics"),
    ("symmvs.metrics", "depth_metrics", "metrics.depth_metrics"),
    ("symmvs.fileio", "write_pfm", "fileio.write_pfm"),
    ("symmvs.fileio", "read_pfm", "fileio.read_pfm"),
    ("symmvs.fileio", "write_ply", "fileio.write_ply"),
    ("symmvs.fileio", "read_ply", "fileio.read_ply"),
]


class SpanStats:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregates call counts, total and self time per span name.

    Used as a context manager, it wraps the entry points on entry and puts
    the originals back on exit, so code outside the block runs untraced.
    """

    def __init__(self):
        self.stats = {}
        self.skipped_terms = 0
        self._stack = []
        self._restore = []

    def take(self) -> dict:
        """Return the statistics gathered since the last call and reset.

        Span names map to `SpanStats`; ``consistency.skipped_terms`` maps to
        the number of loss terms skipped for an empty mask, summed over all
        loss evaluations.
        """
        out, self.stats = self.stats, {}
        out["consistency.skipped_terms"] = self.skipped_terms
        self.skipped_terms = 0
        return out

    # -- wrapping -----------------------------------------------------------

    @staticmethod
    def _span_name(name, args, kwargs):
        if name == "consistency.evaluate":
            with_grad = kwargs.get("with_grad", args[4] if len(args) > 4 else False)
            return "consistency.evaluate_grad" if with_grad else name
        return name

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._span_name(name, args, kwargs)
            frame = [0.0]  # time spent in traced children
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                st = tracer.stats.get(span)
                if st is None:
                    st = tracer.stats[span] = SpanStats()
                st.calls += 1
                st.s += dt
                st.self_s += dt - frame[0]
            if name == "consistency.evaluate":
                tracer.skipped_terms += len(result[0].skipped)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every entry point in `SPANS`; raises MissingEntryPoint."""
        try:
            targets = [(self._lookup(mod, attr), name) for mod, attr, name in SPANS]
            loaded = [m for k, m in sys.modules.items()
                      if (k == "symmvs" or k.startswith("symmvs.")) and m is not None]
            for (owner, leaf, fn), name in targets:
                wrapped = self._wrap(fn, name)
                if isinstance(owner, type):
                    self._rebind(owner, leaf, fn, wrapped)
                    continue
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, key, fn, wrapped)
        except BaseException:
            self.uninstall()
            raise

    @staticmethod
    def _lookup(mod_name, attr):
        """(owner, attribute name, function) of one entry point."""
        try:
            owner = importlib.import_module(mod_name)
        except ImportError as exc:
            raise MissingEntryPoint(f"{mod_name}.{attr}: {exc}") from exc
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # A method is read from the class's own dict, so uninstall puts
        # back exactly what was there.
        fn = vars(owner).get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        if not callable(fn):
            raise MissingEntryPoint(f"{mod_name}.{attr} does not exist")
        return owner, leaf, fn

    def _rebind(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
