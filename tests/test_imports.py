"""The package imports only the standard library, numpy, scipy and itself,
keeps the sampling primitives inside the modules that own them, builds
camera records in `geometry` only, records tape nodes only through
`autodiff.fused` and only where a gradient flows, builds occlusion masks in
one mask pass, and names the loss terms in `consistency`'s term table
only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "symmvs"
SOURCES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {"numpy", "scipy", "symmvs"}


def imported_modules(path):
    """(line, top-level name) of every absolute import in one source file,
    including those inside functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_stdlib_numpy_scipy_or_the_package():
    assert any(p.name == "__init__.py" for p in SOURCES)
    foreign = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in imported_modules(path)
        if name not in sys.stdlib_module_names and name not in ALLOWED
    ]
    assert foreign == []


# Where a pair samples and whether the sample counts is decided in
# `geometry.pair_sampling`; every other module reads its result.
SAMPLING_PRIMITIVES = {"_in_bounds", "bilinear_taps"}
SAMPLING_OWNERS = {"geometry.py", "autodiff.py"}


def referenced_names(path):
    """(line, name) of every identifier, attribute and imported name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rpartition(".")[2]


def test_sampling_primitives_stay_in_geometry_and_autodiff():
    leaks = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        if path.name not in SAMPLING_OWNERS
        for line, name in referenced_names(path)
        if name in SAMPLING_PRIMITIVES
    ]
    assert leaks == []


# Only `geometry` turns cameras into `ViewPair` records; the sweep reads the
# records its caller built and no camera.
CAMERA_API = {"pair_coefficients", "pair_records", "view_rays", "relative_motion",
              "CameraView"}


def test_volume_references_no_camera_api():
    leaks = [f"volume.py:{line}: {name}"
             for line, name in referenced_names(PACKAGE / "volume.py")
             if name in CAMERA_API]
    assert leaks == []


# A tape node is a depth leaf or a `fused` formula: `Var` has no arithmetic,
# and only those two places construct one.
OPERATORS = {f"__{p}{op}__" for op in ("add", "sub", "mul", "truediv", "floordiv",
                                         "mod", "pow", "matmul")
             for p in ("", "r", "i")} | {"__neg__", "__pos__", "__abs__",
                                         "__getitem__", "sum"}


def calls_of(path, name):
    """The enclosing function of every call of ``name`` or ``<module>.name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            if getattr(callee, "id", getattr(callee, "attr", None)) == name:
                yield func
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    yield from visit(tree, None)


def test_tape_nodes_are_leaves_or_fused_formulas():
    from symmvs.autodiff import Var

    assert sorted(op for op in OPERATORS if hasattr(Var, op)) == []
    makers = {f"{path.name}:{func}" for path in SOURCES
              for func in calls_of(path, "Var")}
    assert makers == {"autodiff.py:fused", "consistency.py:_evaluate"}


# A box sum or a Charbonnier penalty on its own is never differentiated:
# both are plain kernels, and a Var handed to one raises instead of
# becoming a value that carries no gradient.
@pytest.mark.parametrize("kernel", ["autodiff.box_sum3", "photometry.charbonnier"])
def test_plain_kernels_refuse_a_var(kernel):
    import symmvs
    from symmvs.autodiff import Var

    module, name = kernel.split(".")
    with pytest.raises(TypeError):
        getattr(getattr(symmvs, module), name)(Var(np.ones((3, 4))))


# Every module reads a loss term's short name from `consistency.TERMS`.
def test_only_the_term_table_spells_the_term_names():
    from symmvs.consistency import TERMS

    names = {kind.name for kind in TERMS}
    spelled = [f"{path.name}:{node.lineno}: {node.value!r}"
               for path in SOURCES if path.name != "consistency.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and node.value.partition("_")[0] in names]
    assert spelled == []


# Every occlusion mask comes from the one round trip of the mask pass.
def test_only_the_mask_pass_builds_occlusion_masks():
    builders = {f"{path.name}:{func}" for path in SOURCES
                for func in calls_of(path, "OcclusionMask")}
    assert builders == {"consistency.py:compute_all_masks"}


def test_importing_the_package_leaves_scipy_spatial_unloaded():
    # `scipy.spatial` takes most of the package's import time; only
    # `metrics.cloud_metrics` needs it, and imports it when called
    code = "import sys, symmvs; print('scipy.spatial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
