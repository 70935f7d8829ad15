"""On-disk formats: kernel sets, attribute maps, labels, images, configs.

Everything here is deliberately strict — truncated payloads, unknown keys,
stray tokens, or non-finite numbers are errors, never warnings. Floats in
text formats are written with ``repr`` so parsing them back is bit-exact.
"""

from __future__ import annotations

import math
import struct
from itertools import chain

import numpy as np

from .core import GaussianSet, Role
from .errors import FormatError, InvalidArgumentError, TruncationError
from .morton import AttributeMap, MortonMapping

GMAP_MAGIC = b"GMAP"
GMAP_VERSION = 1

# gset records are parsed and formatted this many at a time, so the Python
# strings and floats of one chunk are all that is alive at once
_CHUNK_RECORDS = 256


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


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


def _parse_int64(token: str, where: str) -> int:
    """An integer field stored as int64 (kernel-set and mapping files)."""
    value = _parse_int(token, where)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise FormatError(f"{where}: integer {token!r} out of int64 range")
    return value


# ---------------------------------------------------------------------------
# kernel sets (text)


def write_gset(path, gset: GaussianSet) -> None:
    """One kernel per line after a five-line header; optional trailing label id."""
    table = np.hstack([gset.positions, gset.rotations, gset.log_scales,
                       gset.opacities[:, None], gset.colors])
    if not np.all(np.isfinite(table)):
        raise InvalidArgumentError("refusing to write non-finite value")
    with open(path, "w") as fh:
        fh.write(f"GSET 1\nrole {gset.role.value}\nframe {gset.frame}\ncount {len(gset)}\n"
                 f"color_channels {gset.color_channels}\n")
        for start in range(0, len(gset), _CHUNK_RECORDS):
            stop = start + _CHUNK_RECORDS
            rows = [" ".join(map(repr, row)) for row in table[start:stop].tolist()]
            if gset.labels is not None:
                labels = gset.labels[start:stop].tolist()
                rows = [f"{row} {label}" for row, label in zip(rows, labels)]
            fh.write("".join(f"{i} {row}\n" for i, row in enumerate(rows, start)))


def _header_line(lines: list[str], lineno: int, key: str, path) -> str:
    if lineno >= len(lines):
        raise TruncationError(f"{path}: missing header line {key!r}")
    parts = lines[lineno].split()
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(f"{path}:{lineno + 1}: expected '{key} <value>', got {lines[lineno]!r}")
    return parts[1]


def _parse_all(parse, tokens: list, fallback=None) -> list:
    """``parse`` over every token; a token it rejects becomes ``fallback``."""
    try:
        return list(map(parse, tokens))
    except ValueError:
        def lenient(token):
            try:
                return parse(token)
            except ValueError:
                return fallback
        return list(map(lenient, tokens))


def _parse_records(records: list[str], start: int, base: int, labeled: bool, path):
    """Bulk-parse gset records numbered from ``start``: (values (n, base), label ids).

    The first record failing any check is re-checked on its own, so the error
    is the one a record-by-record pass would raise.
    """
    fields = base + 1 + labeled
    tokens = [ln.split() for ln in records]
    whole = next((i for i, tok in enumerate(tokens) if len(tok) != fields), len(tokens))
    flat = list(chain.from_iterable(tokens[:whole]))  # records before `whole` are whole
    index = _parse_all(int, flat[0::fields])
    values = np.array(_parse_all(float, [t for tok in tokens[:whole] for t in tok[1:base + 1]],
                                 math.nan)).reshape(whole, base)
    labels = _parse_all(int, flat[base + 1::fields]) if labeled else []
    not_finite = np.flatnonzero(~np.isfinite(values).all(axis=1))
    first = min(whole,
                next((i for i, v in enumerate(index) if v != start + i), whole),
                int(not_finite[0]) if not_finite.size else whole,
                next((i for i, v in enumerate(labels)
                      if v is None or not 0 <= v <= _INT64_MAX), whole))
    if first < len(tokens):
        _check_record(tokens[first], start + first, base, labeled, f"{path}:{6 + start + first}")
    return values, labels


def _check_record(tok: list[str], i: int, base: int, labeled: bool, where: str) -> None:
    """read_gset's checks of one record, in order; raises on the first that fails."""
    if len(tok) != base + 1 + labeled:
        raise FormatError(f"{where}: record has {len(tok)} fields, expected "
                          f"{base + 1 + labeled}")
    if _parse_int(tok[0], where) != i:
        raise FormatError(f"{where}: record index {tok[0]} out of order (expected {i})")
    for t in tok[1:base + 1]:
        _parse_float(t, where)
    if labeled and _parse_int64(tok[-1], where) < 0:
        raise FormatError(f"{where}: negative label id")


def read_gset(path, label_names: tuple[str, ...] | None = None) -> GaussianSet:
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split() != ["GSET", "1"]:
        raise FormatError(f"{path}:1: expected 'GSET 1' header")
    role_s = _header_line(lines, 1, "role", path)
    try:
        role = Role(role_s)
    except ValueError:
        raise FormatError(f"{path}:2: unknown role {role_s!r}") from None
    frame = _parse_int64(_header_line(lines, 2, "frame", path), f"{path}:3")
    count = _parse_int(_header_line(lines, 3, "count", path), f"{path}:4")
    channels = _parse_int(_header_line(lines, 4, "color_channels", path), f"{path}:5")
    if frame < 0:
        raise FormatError(f"{path}:3: frame must be >= 0")
    if count < 1:
        raise FormatError(f"{path}:4: count must be >= 1")
    if channels < 1:
        raise FormatError(f"{path}:5: color_channels must be >= 1")

    body = lines[5:]
    while body and not body[-1].strip():
        body.pop()
    for off, ln in enumerate(body):
        if not ln.strip():
            raise FormatError(f"{path}:{6 + off}: blank line inside the record block")
    records = body
    if len(records) < count:
        raise TruncationError(f"{path}: expected {count} records, found {len(records)}")
    if len(records) > count:
        raise FormatError(f"{path}: trailing content after {count} records")

    base = 11 + channels  # index + 3 pos + 4 rot + 3 scale + opacity + colors
    first_len = len(records[0].split())
    if first_len == base + 1:
        labeled = False
    elif first_len == base + 2:
        labeled = True
    else:
        raise FormatError(f"{path}:6: record has {first_len} fields, expected "
                          f"{base + 1} or {base + 2}")

    positions = np.empty((count, 3))
    rotations = np.empty((count, 4))
    log_scales = np.empty((count, 3))
    opacities = np.empty(count)
    colors = np.empty((count, channels))
    labels = np.empty(count, dtype=np.int64) if labeled else None
    for start in range(0, count, _CHUNK_RECORDS):
        rows = slice(start, start + _CHUNK_RECORDS)
        values, chunk_labels = _parse_records(records[rows], start, base, labeled, path)
        positions[rows] = values[:, 0:3]
        rotations[rows] = values[:, 3:7]
        log_scales[rows] = values[:, 7:10]
        opacities[rows] = values[:, 10]
        colors[rows] = values[:, 11:]
        if labeled:
            labels[rows] = chunk_labels
    try:
        return GaussianSet(positions=positions, rotations=rotations,
                           log_scales=log_scales, opacities=opacities,
                           colors=colors, role=role, frame=frame,
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
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
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
# attribute maps (binary) and kernel-to-pixel mappings (text)


def write_gmap(path, amap: AttributeMap) -> None:
    """Little-endian: magic, u32 version/width/height/channels, f32 payload."""
    data = amap.data
    if not np.all(np.isfinite(data)):
        raise InvalidArgumentError("refusing to write non-finite map data")
    h, w, c = data.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIII", GMAP_MAGIC, GMAP_VERSION, w, h, c))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def read_gmap(path) -> AttributeMap:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20:
        raise TruncationError(f"{path}: header needs 20 bytes, file has {len(blob)}")
    magic, version, w, h, c = struct.unpack_from("<4sIIII", blob)
    if magic != GMAP_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != GMAP_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if w < 1 or h < 1 or c < 1:
        raise FormatError(f"{path}: bad dimensions {w}x{h}x{c}")
    expect = 20 + 4 * w * h * c
    if len(blob) < expect:
        raise TruncationError(f"{path}: expected {expect} bytes, got {len(blob)}")
    if len(blob) > expect:
        raise FormatError(f"{path}: {len(blob) - expect} trailing bytes after payload")
    data = np.frombuffer(blob, dtype="<f4", offset=20).reshape(h, w, c)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return AttributeMap(data=data)


def write_mapping(path, mapping: MortonMapping) -> None:
    """``index u v`` per kernel (u = column, v = row)."""
    with open(path, "w") as fh:
        for i, (u, v) in enumerate(mapping.uv):
            fh.write(f"{i} {u} {v}\n")


def read_mapping(path, resolution: tuple[int, int]) -> MortonMapping:
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty mapping")
    uv = np.empty((len(lines), 2), dtype=np.int64)
    for i, line in enumerate(lines):
        where = f"{path}:{i + 1}"
        if not line.strip():
            raise FormatError(f"{where}: blank line inside the record block")
        tok = line.split()
        if len(tok) != 3:
            raise FormatError(f"{where}: expected 'index u v'")
        if _parse_int(tok[0], where) != i:
            raise FormatError(f"{where}: index {tok[0]} out of order (expected {i})")
        uv[i, 0] = _parse_int64(tok[1], where)
        uv[i, 1] = _parse_int64(tok[2], where)
    try:
        return MortonMapping(resolution=resolution, uv=uv, valid_count=len(uv))
    except InvalidArgumentError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# images


def _quantize_u8(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("refusing to write non-finite image data")
    # round half up after clamping to [0, 1]
    return np.floor(np.clip(values, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary P6, maxval 255, from (H,W,3) floats in [0,1]."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise InvalidArgumentError(f"need (H,W,3) data, got {rgb.shape}")
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_quantize_u8(rgb).tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """Binary P5, maxval 255, from (H,W) floats in [0,1]."""
    gray = np.asarray(gray, dtype=np.float64)
    if gray.ndim != 2:
        raise InvalidArgumentError(f"need (H,W) data, got {gray.shape}")
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_quantize_u8(gray).tobytes())


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
    expect = w * h * samples
    if len(payload) < expect:
        raise TruncationError(f"{path}: expected {expect} payload bytes, got {len(payload)}")
    if len(payload) > expect:
        raise FormatError(f"{path}: {len(payload) - expect} trailing bytes after payload")
    data = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    shape = (h, w, samples) if samples > 1 else (h, w)
    return data.reshape(shape)


def read_ppm(path) -> np.ndarray:
    return _read_pnm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    return _read_pnm(path, b"P5", 1)


# ---------------------------------------------------------------------------
# configuration (key=value)

_INT_KEYS = {
    "k_neighbors": (1, None),
    "clusters_per_label": (1, None),
    "map_width": (1, None),
    "map_height": (1, None),
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
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
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
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
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
