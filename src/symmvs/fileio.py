"""File formats: plain-text camera files, PFM depth maps, PGM/PPM images,
PLY point clouds, scene configs, run configs, and problem bundles.

Each format has one reader and one writer (the two configs are only read),
and each states its rule once: the text formats share one line reader
(``#`` comments, blank lines skipped), a camera file is one token layout,
run.cfg one key table, PGM/PPM one magic-to-channels table, and a PLY
vertex one record that both encodings write. All writers are deterministic
(fixed float formatting, fixed ordering), so identical inputs produce
byte-identical files. Exact layouts are documented in docs/formats.md.
"""

from __future__ import annotations

from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import NonFiniteValue, ParseError, SymmvsError, UnsupportedVariant
from .fusion import PointCloud
from .geometry import CameraView, DepthHypotheses, DepthMap
from .photometry import LossWeights
from .scenegen import PlanePrimitive, SceneSpec
from .solver import SolverConfig

__all__ = [
    "read_camera",
    "write_camera",
    "read_pfm",
    "write_pfm",
    "read_image",
    "write_image",
    "write_mask_pgm",
    "read_ply",
    "write_ply",
    "read_scene_config",
    "read_run_config",
    "write_bundle",
    "view_names",
    "load_bundle",
]

_F17 = "{:.17g}"


def _lines(path):
    """(line number, text before any ``#``, stripped) of every line of a
    text file that holds more than blanks and a comment."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


# -- camera files ---------------------------------------------------------------


# The tokens of a camera file in order: a keyword, or `float` for a number.
_CAMERA_LAYOUT = ("extrinsic",) + (float,) * 16 + ("intrinsic",) + (float,) * 11


def read_camera(path):
    """Parse a camera file: ``extrinsic`` + 4x4 world-to-camera matrix,
    ``intrinsic`` + 3x3 matrix, then ``depth_min depth_interval``.

    Whitespace-tolerant; a depth range that is not positive raises
    ParseError. Returns (intrinsics, rotation, translation, depth_min,
    depth_interval).
    """
    path = Path(path)
    tokens = [(tok, lineno) for lineno, line in _lines(path) for tok in line.split()]
    numbers = []
    for want, (tok, line) in zip(_CAMERA_LAYOUT,
                                 chain(tokens, repeat((None, "EOF")))):
        if want is not float:
            if tok != want:
                raise ParseError(f"{path}:{line}: expected keyword {want!r}")
        elif tok is None:
            raise ParseError(f"{path}:{line}: unexpected end of file")
        else:
            try:
                numbers.append(float(tok))
            except ValueError:
                raise ParseError(f"{path}:{line}: bad number {tok!r}") from None
    if len(tokens) > len(_CAMERA_LAYOUT):
        raise ParseError(f"{path}:{tokens[len(_CAMERA_LAYOUT)][1]}: trailing content")
    if not np.isfinite(numbers).all():
        raise NonFiniteValue(f"{path}: non-finite camera values")
    ext = np.array(numbers[:16]).reshape(4, 4)
    intr = np.array(numbers[16:25]).reshape(3, 3)
    d_min, d_interval = numbers[25:]
    _check_positive(path, tokens[-1][1], depth_min=d_min, depth_interval=d_interval)
    return intr, ext[:3, :3], ext[:3, 3], d_min, d_interval


def _check_positive(path, line, **values):
    """ParseError at ``path``:``line`` unless every value is positive and finite."""
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise ParseError(f"{path}:{line}: {name} must be positive, "
                             f"got {float(value)}")


def write_camera(path, intrinsics, rotation, translation,
                 depth_min: float, depth_interval: float):
    """Write a camera file; 17 significant digits make the round trip exact."""
    ext = np.eye(4)
    ext[:3, :3] = rotation
    ext[:3, 3] = np.asarray(translation).reshape(3)
    lines = ["extrinsic"]
    for row in ext:
        lines.append(" ".join(_F17.format(v) for v in row))
    lines.append("")
    lines.append("intrinsic")
    for row in np.asarray(intrinsics):
        lines.append(" ".join(_F17.format(v) for v in row))
    lines.append("")
    lines.append(f"{_F17.format(depth_min)} {_F17.format(depth_interval)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# -- PFM depth maps ----------------------------------------------------------------


def write_pfm(path, depth: DepthMap):
    """Grayscale little-endian PFM, bottom-up rows; invalid pixels store 0."""
    vals = np.where(depth.valid, depth.values, 0.0).astype("<f4")
    h, w = vals.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(np.flipud(vals).tobytes())


def read_pfm(path) -> DepthMap:
    """Read a grayscale PFM written by `write_pfm`; zeros become invalid, a
    non-finite pixel raises NonFiniteValue naming the path, and a scale
    that is not a finite number ParseError naming its line."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic == b"PF":
            raise UnsupportedVariant(f"{path}: color PFM is not supported")
        if magic != b"Pf":
            raise ParseError(f"{path}:1: not a PFM file")
        dims = fh.readline().split()
        if len(dims) != 2:
            raise ParseError(f"{path}:2: expected 'width height'")
        try:
            w, h = int(dims[0]), int(dims[1])
        except ValueError:
            raise ParseError(f"{path}:2: bad dimensions") from None
        if w < 0 or h < 0:
            raise ParseError(f"{path}:2: negative dimensions {w} x {h}")
        try:
            scale = float(fh.readline())
        except ValueError:
            scale = float("nan")
        if not np.isfinite(scale):
            raise ParseError(f"{path}:3: bad scale")
        if scale >= 0:
            raise UnsupportedVariant(f"{path}: big-endian PFM is not supported")
        buf = fh.read(4 * w * h)
        if len(buf) != 4 * w * h:
            raise ParseError(f"{path}: truncated pixel data")
    vals = np.frombuffer(buf, dtype="<f4").reshape(h, w)
    if not np.isfinite(vals).all():
        raise NonFiniteValue(f"{path}: non-finite pixel values")
    vals = np.flipud(vals).astype(np.float64)
    return DepthMap(vals, vals > 0)


# -- PGM / PPM images ----------------------------------------------------------------


# magic number of a binary 8-bit PGM / PPM -> its channel count
_PNM_CHANNELS = {b"P5": 1, b"P6": 3}


def write_image(path, image: np.ndarray):
    """8-bit binary PGM (grayscale) or PPM (RGB) from values in [0, 1].

    ``path`` must end in ``.pgm`` or ``.ppm``; any other suffix raises
    UnsupportedVariant naming the path.
    """
    if Path(path).suffix not in (".pgm", ".ppm"):
        raise UnsupportedVariant(f"{path}: images are written as .pgm or .ppm only")
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    # an (H, W) image is grayscale
    magic = {(c,): m for m, c in _PNM_CHANNELS.items()}.get(img.shape[2:] or (1,))
    if magic is None:
        raise UnsupportedVariant("images must be grayscale or RGB")
    quant = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.tobytes())


def _read_pnm_header(fh, path):
    def token():
        tok = b""
        while True:
            ch = fh.read(1)
            if not ch:
                raise ParseError(f"{path}: truncated header")
            if ch == b"#":
                fh.readline()
                continue
            if ch.isspace():
                if tok:
                    return tok
                continue
            tok += ch

    magic = token()
    try:
        w, h, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise ParseError(f"{path}: bad header numbers") from None
    if w < 0 or h < 0:
        raise ParseError(f"{path}: negative image size {w} x {h}")
    return magic, w, h, maxval


def read_image(path) -> np.ndarray:
    """Read a binary 8-bit PGM/PPM into float64 values in [0, 1].

    Grayscale returns (H, W, 1); color returns (H, W, 3).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic, w, h, maxval = _read_pnm_header(fh, path)
        if maxval != 255:
            raise UnsupportedVariant(f"{path}: only 8-bit images are supported")
        channels = _PNM_CHANNELS.get(magic)
        if channels is None:
            raise ParseError(f"{path}: not a binary PGM/PPM")
        count = h * w * channels
        buf = fh.read(count)
        if len(buf) != count:
            raise ParseError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(buf, dtype=np.uint8).reshape(h, w, channels)
    return pixels.astype(np.float64) / 255.0


def write_mask_pgm(path, mask: np.ndarray):
    """Boolean mask as a PGM: 255 where valid, 0 elsewhere."""
    write_image(path, np.asarray(mask, dtype=np.float64))


# -- PLY point clouds --------------------------------------------------------------


# PLY property type -> numpy type; `write_ply` writes float and uchar
_PLY_TYPES = {"float": "<f4", "float32": "<f4", "double": "<f8",
              "uchar": "u1", "uint8": "u1"}
_XYZ = ("x", "y", "z")
_RGB = ("red", "green", "blue")


def write_ply(path, cloud: PointCloud, binary: bool = True):
    """PLY with float x/y/z and optional uchar red/green/blue properties:
    one record per point, packed in a binary file and one row of
    17-significant-digit numbers in an ASCII one."""
    props = [("float", name) for name in _XYZ]
    values = cloud.points
    if cloud.colors is not None:
        props += [("uchar", name) for name in _RGB]
        values = np.hstack([values, np.clip(np.rint(cloud.colors * 255.0), 0, 255)])
    rec = np.empty(len(cloud), dtype=[(name, _PLY_TYPES[ty]) for ty, name in props])
    for (_, name), column in zip(props, values.T):
        rec[name] = column
    header = ["ply", "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {len(cloud)}"]
    header += [f"property {ty} {name}" for ty, name in props] + ["end_header"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            fh.write(rec.tobytes())
        else:
            fh.write("".join(" ".join(map(_F17.format, row)) + "\n"
                             for row in rec.tolist()).encode("ascii"))


def read_ply(path) -> PointCloud:
    """Read an ASCII or binary little-endian PLY with x/y/z (+ rgb); a
    non-finite coordinate or color raises NonFiniteValue naming the path."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"ply":
            raise ParseError(f"{path}:1: not a PLY file")
        fmt = None
        n = None
        element = None
        props = []  # the vertex element's
        lineno = 1
        while True:
            line = fh.readline()
            lineno += 1
            if not line:
                raise ParseError(f"{path}:{lineno}: missing end_header")
            parts = line.split()
            if not parts:
                continue
            if parts[0] == b"end_header":
                break
            try:
                if parts[0] == b"format":
                    fmt = parts[1].decode()
                elif parts[0] == b"element":
                    element, count = parts[1], int(parts[2])
                    if element == b"vertex":
                        n = count
                    elif count != 0:
                        raise UnsupportedVariant(
                            f"{path}: only vertex elements supported")
                elif parts[0] == b"property":
                    prop = (parts[1].decode(), parts[2].decode())
                    if element is None:
                        raise ParseError(f"{path}:{lineno}: property before any element")
                    if element == b"vertex":
                        props.append(prop)
            except (IndexError, ValueError):
                text = line.decode("ascii", "replace").strip()
                raise ParseError(f"{path}:{lineno}: malformed header line "
                                 f"{text!r}") from None
        if fmt not in ("ascii", "binary_little_endian"):
            raise UnsupportedVariant(f"{path}: unsupported format {fmt!r}")
        if n is None:
            raise ParseError(f"{path}: no vertex element")
        if n < 0:
            raise ParseError(f"{path}: negative vertex count {n}")
        names = [p[1] for p in props]
        for needed in _XYZ:
            if needed not in names:
                raise ParseError(f"{path}: missing property {needed}")
        has_color = all(c in names for c in _RGB)

        try:
            np_props = [(name, _PLY_TYPES[ty]) for ty, name in props]
        except KeyError as exc:
            raise UnsupportedVariant(f"{path}: property type {exc} unsupported")

        if fmt == "binary_little_endian":
            dtype = np.dtype(np_props)
            buf = fh.read(dtype.itemsize * n)
            if len(buf) != dtype.itemsize * n:
                raise ParseError(f"{path}: truncated vertex data")
            rec = np.frombuffer(buf, dtype=dtype)
        else:
            try:
                arr = np.array(fh.read().decode("ascii").split(), dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}: bad vertex data ({exc})") from None
            width = len(props)
            if arr.size != width * n:
                raise ParseError(f"{path}: expected {width * n} vertex tokens")
            arr = arr.reshape(n, width)
            rec = {name: arr[:, k] for k, (name, _) in enumerate(np_props)}

    pts = np.stack([np.asarray(rec[k], np.float64) for k in _XYZ], axis=1)
    colors = None
    if has_color:
        colors = np.stack([np.asarray(rec[k], np.float64) for k in _RGB], axis=1) / 255.0
    if not (np.isfinite(pts).all() and (colors is None or np.isfinite(colors).all())):
        raise NonFiniteValue(f"{path}: non-finite vertex values")
    return PointCloud(pts, colors)


# -- scene config --------------------------------------------------------------------


def _parse_kv(parts, path, lineno):
    out = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        out[key] = val
    return out


def _floats(text):
    return [float(v) for v in text.split(",")]


def read_scene_config(path) -> tuple:
    """Parse a scene config; returns (SceneSpec, depth_min, depth_interval).

    One entity per line: global ``key value`` settings plus repeated
    ``camera ...`` and ``plane ...`` lines with key=value fields (see
    docs/formats.md).
    """
    path = Path(path)
    size = None
    channels = 1
    seed = 0
    depth_min = None
    depth_interval = None
    cameras = []
    planes = []
    for lineno, line in _lines(path):
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "size":
                size = (int(parts[1]), int(parts[2]))
                SceneSpec._check(width=size[0], height=size[1])
            elif kind == "channels":
                channels = int(parts[1])
                SceneSpec._check(channels=channels)
            elif kind == "seed":
                seed = int(parts[1])
            elif kind == "depth_range":
                depth_min, depth_interval = float(parts[1]), float(parts[2])
                _check_positive(path, lineno, depth_min=depth_min,
                                depth_interval=depth_interval)
            elif kind == "camera":
                kv = _parse_kv(parts[1:], path, lineno)
                fx = float(kv["fx"])
                fy = float(kv.get("fy", kv["fx"]))
                cx, cy = float(kv["cx"]), float(kv["cy"])
                skew = float(kv.get("skew", "0"))
                K = np.array([[fx, skew, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
                if "center" in kv:
                    c = np.array(_floats(kv["center"]))
                    R = np.eye(3)
                    t = -c
                else:
                    R = np.array(_floats(kv["rot"])).reshape(3, 3)
                    t = np.array(_floats(kv["t"]))
                cameras.append(CameraView(K, R, t, None))
            elif kind == "plane":
                kv = _parse_kv(parts[1:], path, lineno)
                planes.append(
                    PlanePrimitive(
                        normal=np.array(_floats(kv["normal"])),
                        offset=float(kv["offset"]),
                        texture_id=int(kv.get("texture", "0")),
                        texture_scale=float(kv.get("scale", "1")),
                        bounds=tuple(_floats(kv["bounds"])) if "bounds" in kv else None,
                    )
                )
            else:
                raise ParseError(f"{path}:{lineno}: unknown entry {kind!r}")
        except (KeyError, ValueError, IndexError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if size is None:
        raise ParseError(f"{path}: missing 'size W H'")
    if depth_min is None or depth_interval is None:
        raise ParseError(f"{path}: missing 'depth_range d_min d_interval'")
    if not cameras:
        raise ParseError(f"{path}: no cameras")
    if not planes:
        raise ParseError(f"{path}: no planes")
    spec = SceneSpec(planes, cameras, size[0], size[1], channels, seed)
    return spec, depth_min, depth_interval


# -- run config ----------------------------------------------------------------------


_SOLVER_KEYS = {
    "max_outer_iters": int,
    "inner_steps_per_mask_update": int,
    "convergence_tol": float,
    "hyp_count": int,
}
# every run.cfg key -> the type its value parses as
_RUN_KEYS = {**dict.fromkeys(LossWeights.__dataclass_fields__, float), **_SOLVER_KEYS}


def read_run_config(path) -> tuple:
    """Flat ``key = value`` run configuration.

    Keys mirror the loss-weight and solver fields; unknown keys raise
    ParseError so typos cannot silently change a run, and so does a weight
    that `LossWeights` rejects or a solver setting that
    `solver.SolverConfig.check` rejects (``hyp_count``:
    `DepthHypotheses.check_count`), each naming the file and line. Returns
    (LossWeights, dict of solver settings).
    """
    path = Path(path)
    weights_kw = {}
    solver_kw = {}
    for lineno, line in _lines(path):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _RUN_KEYS:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        is_weight = key not in _SOLVER_KEYS
        try:
            value = _RUN_KEYS[key](val)
        except ValueError:
            what = "bad number" if is_weight else "bad value"
            raise ParseError(f"{path}:{lineno}: {what} {val!r}") from None
        try:
            if is_weight:
                LossWeights(**{key: value})
            elif key == "hyp_count":
                DepthHypotheses.check_count(value, key)
            else:
                SolverConfig.check(key, value)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        (weights_kw if is_weight else solver_kw)[key] = value
    return LossWeights(**weights_kw), solver_kw


# -- problem bundles --------------------------------------------------------------------


def write_bundle(out_dir, views, depth_min: float, depth_interval: float,
                 gt_depths=None):
    """Write a problem bundle: one image + camera file per view, optional
    ground-truth PFMs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, view in enumerate(views):
        img = view.image
        suffix = ".ppm" if img.shape[2] == 3 else ".pgm"
        write_image(out / f"view_{i:04d}{suffix}", img)
        write_camera(out / f"view_{i:04d}_cam.txt", view.intrinsics,
                     view.rotation, view.translation, depth_min, depth_interval)
        if gt_depths is not None:
            write_pfm(out / f"view_{i:04d}_gt.pfm", gt_depths[i])


def view_names(bundle_dir) -> list:
    """The name ``view_NNNN`` of every view of a bundle directory, in the
    order `load_bundle` loads them: that of its sorted camera files."""
    bundle = Path(bundle_dir)
    names = [p.name[: -len("_cam.txt")] for p in sorted(bundle.glob("view_*_cam.txt"))]
    if not names:
        raise ParseError(f"{bundle}: no camera files (view_*_cam.txt)")
    return names


def load_bundle(bundle_dir) -> tuple:
    """Load a bundle directory written by `write_bundle`.

    Returns (views, depth_min, depth_interval, gt_depths_or_None), the
    views in `view_names` order. Every image must have a matching camera
    file, and all shapes and camera depth ranges must agree; errors name
    the camera or image file at fault.
    """
    bundle = Path(bundle_dir)
    names = view_names(bundle)
    views = []
    gt = []
    d_min = d_int = None
    for stem in names:
        cam_path = bundle / f"{stem}_cam.txt"
        img_path = next((p for p in (bundle / f"{stem}.pgm", bundle / f"{stem}.ppm")
                         if p.exists()), None)
        if img_path is None:
            raise ParseError(f"{bundle}: missing image for {cam_path.name}")
        K, R, t, dm, di = read_camera(cam_path)
        if d_min is None:
            d_min, d_int = dm, di
        elif (dm, di) != (d_min, d_int):
            raise ParseError(f"{cam_path}: depth range {dm} {di} differs from "
                             f"{names[0]}_cam.txt's {d_min} {d_int}")
        image = read_image(img_path)
        if views and image.shape != views[0].image.shape:
            raise ParseError(f"{img_path}: image is {image.shape}, the first "
                             f"view's is {views[0].image.shape}")
        try:
            views.append(CameraView(K, R, t, image))
        except (ValueError, SymmvsError) as exc:
            raise type(exc)(f"{cam_path}: {exc}") from exc
        gt_path = bundle / f"{stem}_gt.pfm"
        if gt_path.exists():
            gt.append(read_pfm(gt_path))
    gt_out = gt if len(gt) == len(views) else None
    return views, d_min, d_int, gt_out
