"""On-disk formats: kernel sets, attribute maps, labels, images, configs.

Kernel sets, attribute maps and kernel-to-pixel mappings are little-endian
binary: a fixed header, then raw blocks read back as views at fixed offsets.
Labels, configs and traces are UTF-8 text. Everything here is deliberately
strict — truncated payloads, trailing bytes, unknown keys, stray tokens, or
non-finite numbers are errors, never warnings. Kernel sets and mappings
round-trip bit-exactly, and so do the floats of traces, which are written with
``repr``.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .core import GaussianSet, Role
from .errors import FormatError, InvalidArgumentError, TruncationError
from .morton import AttributeMap, MortonMapping
from .render import MAX_RESOLUTION

GSET_MAGIC = b"GSET"
GSET_VERSION = 1
GMAP_MAGIC = b"GMAP"
GMAP_VERSION = 1
MAPPING_MAGIC = b"GUVM"
MAPPING_VERSION = 1
# magic, version, role code, color channels, labelled flag, frame, count
_GSET_HEADER = struct.Struct("<4sIIIIqQ")
# magic, version, width, height, channels
_GMAP_HEADER = struct.Struct("<4sIIII")
# magic, version, width, height, count
_MAPPING_HEADER = struct.Struct("<4sIIIQ")
_UINT32_MAX, _INT64_MAX = 2**32 - 1, 2**63 - 1


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidArgumentError("refusing to write non-finite value")
    return repr(float(x))


def _parse_float(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"{where}: bad float {token!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"{where}: non-finite value {token!r}")
    return value


def _parse_int(token: str, where: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise FormatError(f"{where}: bad integer {token!r}") from None


def _read_text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; any other bytes are a format error."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _read_binary(path, layout: struct.Struct, magic: bytes, version: int):
    """The bytes of ``path`` and its header fields after magic and version, which must match.

    The bytes sit in a fresh NumPy buffer, offset so that the blocks after the
    header lie on 8-byte boundaries: NumPy sums misaligned arrays with other rounding.
    """
    pad = -layout.size % 8
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size + pad, dtype=np.uint8)
        blob = buf[pad:pad + fh.readinto(memoryview(buf)[pad:])]
    if len(blob) < layout.size:
        raise TruncationError(f"{path}: header needs {layout.size} bytes, file has {len(blob)}")
    found_magic, found_version, *fields = layout.unpack_from(blob)
    if found_magic != magic:
        raise FormatError(f"{path}: bad magic {found_magic!r}")
    if found_version != version:
        raise FormatError(f"{path}: unsupported version {found_version}")
    return blob, fields


def _check_size(path, size: int, expect: int, unit: str = "bytes") -> None:
    """A short payload is truncation; a long one has trailing bytes."""
    if size < expect:
        raise TruncationError(f"{path}: expected {expect} {unit}, got {size}")
    if size > expect:
        raise FormatError(f"{path}: {size - expect} trailing bytes after payload")


# ---------------------------------------------------------------------------
# kernel sets (binary)

_GSET_ROLES = (Role.MOTION, Role.APPEARANCE)  # indexed by role code


def write_gset(path, gset: GaussianSet) -> None:
    """The header, then one block per field in field order; labels last, if any."""
    blocks = (gset.positions, gset.rotations, gset.log_scales, gset.opacities, gset.colors)
    if not all(np.all(np.isfinite(block)) for block in blocks):
        raise InvalidArgumentError("refusing to write non-finite value")
    if not (0 <= gset.frame <= _INT64_MAX and len(gset) >= 1 and gset.color_channels >= 1):
        raise InvalidArgumentError(f"refusing to write frame {gset.frame}, count {len(gset)}, "
                                   f"{gset.color_channels} color channels")
    labelled = gset.labels is not None
    with open(path, "wb") as fh:
        fh.write(_GSET_HEADER.pack(GSET_MAGIC, GSET_VERSION, _GSET_ROLES.index(gset.role),
                                   gset.color_channels, labelled, gset.frame, len(gset)))
        for block in blocks:
            fh.write(block.astype("<f8", copy=False).tobytes())
        if labelled:
            fh.write(gset.labels.astype("<i8", copy=False).tobytes())


def read_gset(path, label_names: tuple[str, ...] | None = None) -> GaussianSet:
    blob, (role, channels, labelled, frame, count) = _read_binary(path, _GSET_HEADER,
                                                                  GSET_MAGIC, GSET_VERSION)
    if role >= len(_GSET_ROLES):
        raise FormatError(f"{path}: unknown role code {role}")
    if labelled > 1:
        raise FormatError(f"{path}: labelled flag must be 0 or 1, got {labelled}")
    if frame < 0 or count < 1 or channels < 1:
        raise FormatError(f"{path}: bad header: frame {frame}, count {count}, "
                          f"{channels} color channels")
    widths = (3, 4, 3, 1, channels)
    _check_size(path, len(blob), _GSET_HEADER.size + 8 * count * (sum(widths) + labelled))
    blocks, offset = [], _GSET_HEADER.size
    for width in widths:
        blocks.append(np.frombuffer(blob, "<f8", count * width, offset).reshape(count, width))
        offset += 8 * count * width
    labels = np.frombuffer(blob, "<i8", count, offset) if labelled else None
    if labelled and labels.min() < 0:
        raise FormatError(f"{path}: negative label id")
    positions, rotations, log_scales, opacities, colors = blocks
    try:
        return GaussianSet(positions=positions, rotations=rotations,
                           log_scales=log_scales, opacities=opacities.reshape(count),
                           colors=colors, role=_GSET_ROLES[role], frame=frame,
                           labels=labels, label_names=label_names)
    except InvalidArgumentError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# label names (csv)


def write_labels(path, names: list[str]) -> None:
    """``index,name`` per kernel; names must be non-empty and comma-free."""
    with open(path, "w") as fh:
        fh.write("index,label\n")
        for i, name in enumerate(names):
            if not name or "," in name or name != name.strip():
                raise InvalidArgumentError(f"bad label name {name!r}")
            fh.write(f"{i},{name}\n")


def read_labels(path) -> list[str]:
    lines = _read_text_lines(path)
    if not lines or lines[0] != "index,label":
        raise FormatError(f"{path}:1: expected 'index,label' header")
    names = []
    for i, line in enumerate(lines[1:]):
        where = f"{path}:{i + 2}"
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"{where}: expected 'index,label'")
        if _parse_int(parts[0], where) != i:
            raise FormatError(f"{where}: index {parts[0]} out of order (expected {i})")
        if not parts[1] or parts[1] != parts[1].strip():
            raise FormatError(f"{where}: bad label name {parts[1]!r}")
        names.append(parts[1])
    if not names:
        raise FormatError(f"{path}: no label rows")
    return names


def attach_labels(gset: GaussianSet, names: list[str]) -> GaussianSet:
    """Attach per-kernel string labels as sorted-unique ids + name table."""
    if len(names) != len(gset):
        raise InvalidArgumentError(
            f"{len(names)} labels for {len(gset)} kernels")
    table = tuple(sorted(set(names)))
    ids = np.array([table.index(n) for n in names], dtype=np.int64)
    return gset.replace(labels=ids, label_names=table)


# ---------------------------------------------------------------------------
# attribute maps and kernel-to-pixel mappings (binary)


def write_gmap(path, amap: AttributeMap) -> None:
    """Little-endian: magic, u32 version/width/height/channels, f32 payload."""
    data = amap.data
    if not np.all(np.isfinite(data)):
        raise InvalidArgumentError("refusing to write non-finite map data")
    h, w, c = data.shape
    with open(path, "wb") as fh:
        fh.write(_GMAP_HEADER.pack(GMAP_MAGIC, GMAP_VERSION, w, h, c))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def read_gmap(path) -> AttributeMap:
    blob, (w, h, c) = _read_binary(path, _GMAP_HEADER, GMAP_MAGIC, GMAP_VERSION)
    if w < 1 or h < 1 or c < 1:
        raise FormatError(f"{path}: bad dimensions {w}x{h}x{c}")
    _check_size(path, len(blob), _GMAP_HEADER.size + 4 * w * h * c)
    data = np.frombuffer(blob, dtype="<f4", offset=_GMAP_HEADER.size).reshape(h, w, c)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return AttributeMap(data=data)


def write_mapping(path, mapping: MortonMapping) -> None:
    """The header, then an int64 block of (u, v) = (column, row) per kernel."""
    w, h = mapping.resolution
    if len(mapping) < 1 or w > _UINT32_MAX or h > _UINT32_MAX:
        raise InvalidArgumentError(f"refusing to write a {w}x{h} mapping of {len(mapping)} kernels")
    with open(path, "wb") as fh:
        fh.write(_MAPPING_HEADER.pack(MAPPING_MAGIC, MAPPING_VERSION, w, h, len(mapping)))
        fh.write(mapping.uv.astype("<i8", copy=False).tobytes())


def read_mapping(path, resolution: tuple[int, int]) -> MortonMapping:
    """The mapping in ``path``, which must have been built for ``resolution`` (W, H)."""
    blob, (w, h, count) = _read_binary(path, _MAPPING_HEADER, MAPPING_MAGIC, MAPPING_VERSION)
    if w < 1 or h < 1 or count < 1:
        raise FormatError(f"{path}: bad header: {w}x{h} map, count {count}")
    _check_size(path, len(blob), _MAPPING_HEADER.size + 16 * count)
    if (w, h) != tuple(resolution):
        raise FormatError(f"{path}: mapping is for a {w}x{h} map, "
                          f"expected {resolution[0]}x{resolution[1]}")
    uv = np.frombuffer(blob, "<i8", 2 * count, _MAPPING_HEADER.size).reshape(count, 2)
    try:
        return MortonMapping(resolution=(w, h), uv=uv)
    except InvalidArgumentError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# images


def _quantize_u8(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("refusing to write non-finite image data")
    # round half up after clamping to [0, 1]
    return np.floor(np.clip(values, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def _write_pnm(path, magic: bytes, data) -> None:
    """Binary P6 from (H,W,3) or P5 from (H,W) floats in [0,1], maxval 255."""
    data = np.asarray(data, dtype=np.float64)
    trailing = (3,) if magic == b"P6" else ()
    if data.ndim < 2 or data.shape[2:] != trailing:
        raise InvalidArgumentError(f"need (H,W{',3' * len(trailing)}) data, got {data.shape}")
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, w, h))
        fh.write(_quantize_u8(data).tobytes())


def _read_pnm(path, magic: bytes, samples: int) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    header_parts = blob.split(b"\n", 3)
    if len(header_parts) < 4:
        raise TruncationError(f"{path}: incomplete header")
    if header_parts[0] != magic:
        raise FormatError(f"{path}: bad magic {header_parts[0]!r}")
    dims = header_parts[1].split()
    if len(dims) != 2:
        raise FormatError(f"{path}: bad dimension line {header_parts[1]!r}")
    w = _parse_int(dims[0].decode("ascii", "replace"), f"{path}:2")
    h = _parse_int(dims[1].decode("ascii", "replace"), f"{path}:2")
    if w < 1 or h < 1:
        raise FormatError(f"{path}: bad dimensions {w}x{h}")
    if header_parts[2] != b"255":
        raise FormatError(f"{path}: maxval must be 255, got {header_parts[2]!r}")
    payload = header_parts[3]
    _check_size(path, len(payload), w * h * samples, "payload bytes")
    data = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    shape = (h, w, samples) if samples > 1 else (h, w)
    return data.reshape(shape)


def write_ppm(path, rgb: np.ndarray) -> None:
    _write_pnm(path, b"P6", rgb)


def write_pgm(path, gray: np.ndarray) -> None:
    _write_pnm(path, b"P5", gray)


def read_ppm(path) -> np.ndarray:
    return _read_pnm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    return _read_pnm(path, b"P5", 1)


# ---------------------------------------------------------------------------
# configuration (key=value)

_INT_KEYS = {
    "k_neighbors": (1, None),
    "clusters_per_label": (1, None),
    "map_width": (1, MAX_RESOLUTION),
    "map_height": (1, MAX_RESOLUTION),
    "quant_bits": (1, 21),
    "iterations_init": (1, None),
    "iterations_track": (1, None),
    "iterations_align": (1, None),
    "iterations_transfer": (1, None),
    "seed": (0, None),
}
_FLOAT_KEYS = {
    "l": (True, "positive"),
    "lambda_iso": (False, "non-negative"),
    "lambda_size": (False, "non-negative"),
    "lambda_sem": (False, "non-negative"),
    "lambda_1": (False, "non-negative"),
    "lambda_2": (False, "non-negative"),
    "lr_position": (False, "non-negative"),
    "lr_rotation": (False, "non-negative"),
    "lr_scale": (False, "non-negative"),
    "lr_color": (False, "non-negative"),
}
CONFIG_KEYS = frozenset(_INT_KEYS) | frozenset(_FLOAT_KEYS)


def read_config(path) -> dict:
    """Strict ``key=value`` pairs from the closed key set; '#' lines are comments."""
    out: dict = {}
    for lineno, raw in enumerate(_read_text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise FormatError(f"{where}: expected 'key=value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise FormatError(f"{where}: unknown key {key!r}")
        if key in out:
            raise FormatError(f"{where}: duplicate key {key!r}")
        if not value:
            raise FormatError(f"{where}: empty value for {key!r}")
        if key in _INT_KEYS:
            parsed = _parse_int(value, where)
            lo, hi = _INT_KEYS[key]
            if parsed < lo or (hi is not None and parsed > hi):
                bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
                raise FormatError(f"{where}: {key} must be {bound}, got {parsed}")
            out[key] = parsed
        else:
            parsed = _parse_float(value, where)
            strict_positive, desc = _FLOAT_KEYS[key]
            if parsed < 0.0 or (strict_positive and parsed == 0.0):
                raise FormatError(f"{where}: {key} must be {desc}, got {parsed}")
            out[key] = parsed
    return out


# ---------------------------------------------------------------------------
# optimization traces (csv)


def write_trace(path, trace) -> None:
    """Header row of column names, then one row per logged iteration."""
    with open(path, "w") as fh:
        fh.write(",".join(trace.columns) + "\n")
        for row in trace.rows:
            fh.write(",".join([str(int(row[0]))] + [_fmt(v) for v in row[1:]]) + "\n")


def read_trace(path) -> tuple[tuple[str, ...], list[tuple]]:
    """Returns (columns, rows); rows hold (int iteration, float values...)."""
    lines = _read_text_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty trace")
    columns = tuple(lines[0].split(","))
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(columns):
            raise FormatError(f"{path}:{i}: expected {len(columns)} fields")
        rows.append((_parse_int(parts[0], f"{path}:{i}"),
                     *[_parse_float(p, f"{path}:{i}") for p in parts[1:]]))
    return columns, rows
