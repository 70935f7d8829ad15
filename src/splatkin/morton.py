"""Morton (Z-order) 3D-to-2D parameterization and attribute-map packing.

A MortonMapping pins each kernel to one pixel of a WxH map: quantize canonical
positions onto a 2^bits grid, interleave bits x-lowest, sort by (code, kernel
index), and lay ranks out in row-major raster order. The mapping is built once
from the canonical frame and reused verbatim for every subsequent frame so a
kernel's pixel never moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _frozen
from .errors import CapacityError, InvalidArgumentError

MAX_BITS = 21  # 3*21 = 63 interleaved bits fit a uint64

# magic masks spreading 21 low bits so consecutive bits land 3 apart
_SPREAD_MASKS = (
    np.uint64(0x1FFFFF),
    np.uint64(0x1F00000000FFFF),
    np.uint64(0x1F0000FF0000FF),
    np.uint64(0x100F00F00F00F00F),
    np.uint64(0x10C30C30C30C30C3),
    np.uint64(0x1249249249249249),
)


def _spread_bits(v: np.ndarray) -> np.ndarray:
    v = v & _SPREAD_MASKS[0]
    v = (v | (v << np.uint64(32))) & _SPREAD_MASKS[1]
    v = (v | (v << np.uint64(16))) & _SPREAD_MASKS[2]
    v = (v | (v << np.uint64(8))) & _SPREAD_MASKS[3]
    v = (v | (v << np.uint64(4))) & _SPREAD_MASKS[4]
    v = (v | (v << np.uint64(2))) & _SPREAD_MASKS[5]
    return v


def _compact_bits(v: np.ndarray) -> np.ndarray:
    v = v & _SPREAD_MASKS[5]
    v = (v | (v >> np.uint64(2))) & _SPREAD_MASKS[4]
    v = (v | (v >> np.uint64(4))) & _SPREAD_MASKS[3]
    v = (v | (v >> np.uint64(8))) & _SPREAD_MASKS[2]
    v = (v | (v >> np.uint64(16))) & _SPREAD_MASKS[1]
    v = (v | (v >> np.uint64(32))) & _SPREAD_MASKS[0]
    return v


def morton_encode(ix, iy, iz) -> np.ndarray | int:
    """Interleave integer grid coordinates: bit b of ix lands at code bit 3b,
    iy at 3b+1, iz at 3b+2. Inputs must lie in [0, 2^21)."""
    scalar = np.isscalar(ix) and np.isscalar(iy) and np.isscalar(iz)
    coords = [np.asarray(c) for c in (ix, iy, iz)]
    for c in coords:
        if not np.issubdtype(c.dtype, np.integer):
            raise InvalidArgumentError("morton_encode expects integer coordinates")
        if np.any(c < 0) or np.any(c >= (1 << MAX_BITS)):
            raise InvalidArgumentError(f"coordinates must lie in [0, 2^{MAX_BITS})")
    x, y, z = (c.astype(np.uint64) for c in coords)
    code = _spread_bits(x) | (_spread_bits(y) << np.uint64(1)) | (_spread_bits(z) << np.uint64(2))
    return int(code) if scalar else code


def morton_decode(code) -> tuple:
    """Inverse of morton_encode."""
    scalar = np.isscalar(code)
    c = np.asarray(code)
    if not np.issubdtype(c.dtype, np.integer):
        raise InvalidArgumentError("morton_decode expects integer codes")
    if np.any(c < 0) or np.any(c.astype(np.uint64) >= (np.uint64(1) << np.uint64(3 * MAX_BITS))):
        raise InvalidArgumentError(f"codes must lie in [0, 2^{3 * MAX_BITS})")
    c = c.astype(np.uint64)
    x = _compact_bits(c)
    y = _compact_bits(c >> np.uint64(1))
    z = _compact_bits(c >> np.uint64(2))
    if scalar:
        return int(x), int(y), int(z)
    return x.astype(np.int64), y.astype(np.int64), z.astype(np.int64)


@dataclass
class MortonMapping:
    """Frozen kernel-to-pixel assignment.

    ``uv`` holds (u, v) = (column, row) per kernel.
    """

    resolution: tuple[int, int]  # (W, H)
    uv: np.ndarray  # (N,2) int64
    clamp_count: int = 0

    def __post_init__(self):
        w, h = self.resolution
        self.uv = _frozen(self.uv, "uv", np.int64)
        if self.uv.ndim != 2 or self.uv.shape[1] != 2:
            raise InvalidArgumentError(f"uv must be (N,2), got {self.uv.shape}")
        if w < 1 or h < 1:
            raise InvalidArgumentError("resolution must be positive")
        if self.uv.size:
            if self.uv.min() < 0 or self.uv[:, 0].max() >= w or self.uv[:, 1].max() >= h:
                raise InvalidArgumentError("uv coordinates fall outside the map")
            flat = self.uv[:, 1] * w + self.uv[:, 0]
            if np.unique(flat).size != flat.size:
                raise InvalidArgumentError("uv assignment is not injective")

    def __len__(self) -> int:
        return self.uv.shape[0]

    def pixel_to_kernel(self) -> np.ndarray:
        """(H,W) int64 grid of kernel indices, -1 on invalid pixels."""
        w, h = self.resolution
        grid = np.full((h, w), -1, dtype=np.int64)
        grid[self.uv[:, 1], self.uv[:, 0]] = np.arange(len(self))
        return grid


@dataclass
class AttributeMap:
    """A WxHxC float32 image of per-kernel attributes; invalid pixels are zero."""

    data: np.ndarray  # (H,W,C) float32, row-major

    def __post_init__(self):
        self.data = _frozen(self.data, "map data", np.float32, finite=False)
        if self.data.ndim != 3:
            raise InvalidArgumentError(f"map data must be (H,W,C), got {self.data.shape}")

    @property
    def resolution(self) -> tuple[int, int]:
        return (self.data.shape[1], self.data.shape[0])

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def _mapping_from_order(order: np.ndarray, resolution: tuple[int, int],
                        clamp_count: int = 0) -> MortonMapping:
    w, h = resolution
    n = order.shape[0]
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    uv = np.stack([ranks % w, ranks // w], axis=1)
    return MortonMapping(resolution=(w, h), uv=uv, clamp_count=clamp_count)


def build_mapping(positions, resolution: tuple[int, int] = (512, 512), bits: int = 10) -> MortonMapping:
    """Build the canonical Morton layout for a kernel set.

    The bbox is the tight canonical bound expanded by 1e-6 per axis. Positions
    map to the cells floor((p - lo)/extent * 2^bits), clamped to the grid; the
    mapping's ``clamp_count`` counts the clamped coordinates. Ranks are assigned
    by (morton code, kernel index) ascending and laid out row-major: rank r ->
    pixel (r mod W, r div W).
    """
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise InvalidArgumentError(f"positions must be (N,3), got {positions.shape}")
    if positions.shape[0] == 0:
        raise InvalidArgumentError("cannot build a mapping for an empty set")
    if not np.all(np.isfinite(positions)):
        raise InvalidArgumentError("positions contain non-finite values")
    w, h = resolution
    n = positions.shape[0]
    if n > w * h:
        side = int(np.ceil(np.sqrt(n)))
        raise CapacityError(
            f"{n} kernels exceed map capacity {w}x{h}={w * h}; needs at least {side}x{side}"
        )
    if not (1 <= bits <= MAX_BITS):
        raise InvalidArgumentError(f"bits must lie in [1, {MAX_BITS}], got {bits}")
    lo = positions.min(axis=0) - 1e-6
    hi = positions.max(axis=0) + 1e-6
    extent = hi - lo
    if np.any(extent <= 0.0):
        raise InvalidArgumentError("the bounding box must have positive extent on all axes")
    side = 1 << bits
    cells = np.floor((positions - lo) / extent * side).astype(np.int64)
    clamp_count = int(np.count_nonzero((cells < 0) | (cells > side - 1)))
    cells = np.clip(cells, 0, side - 1)
    codes = morton_encode(cells[:, 0], cells[:, 1], cells[:, 2])
    order = np.lexsort((np.arange(n), codes))
    return _mapping_from_order(order, (w, h), clamp_count=clamp_count)


def y_sort_mapping(positions, resolution: tuple[int, int] = (512, 512)) -> MortonMapping:
    """Baseline layout: ranks by (y coordinate, kernel index). For comparisons only."""
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    order = np.lexsort((np.arange(positions.shape[0]), positions[:, 1]))
    return _mapping_from_order(order, resolution)


def random_mapping(n: int, resolution: tuple[int, int], seed: int) -> MortonMapping:
    """Baseline layout: a seeded random permutation of ranks. For comparisons only."""
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    return _mapping_from_order(order, resolution)


def pack_map(mapping: MortonMapping, values, name: str = "values") -> AttributeMap:
    """Scatter per-kernel rows (N,C) into a (H,W,C) float32 map; invalid pixels stay zero.

    Values must be finite and within float32 range; errors name them ``name``.
    """
    values = _frozen(values, name)
    if values.ndim != 2:
        raise InvalidArgumentError(f"{name} must be (N,C), got {values.shape}")
    if values.shape[0] != len(mapping):
        raise InvalidArgumentError(
            f"{name} count {values.shape[0]} does not match mapping size {len(mapping)}"
        )
    with np.errstate(over="ignore"):
        packed = values.astype(np.float32)
    if not np.all(np.isfinite(packed)):
        raise InvalidArgumentError(f"{name} overflows float32")
    w, h = mapping.resolution
    data = np.zeros((h, w, values.shape[1]), dtype=np.float32)
    data[mapping.uv[:, 1], mapping.uv[:, 0]] = packed
    return AttributeMap(data=data)


def unpack_map(mapping: MortonMapping, amap: AttributeMap) -> np.ndarray:
    """Gather per-kernel rows back out of a map (exact inverse of pack_map)."""
    if amap.resolution != tuple(mapping.resolution):
        raise InvalidArgumentError(
            f"map resolution {amap.resolution} does not match mapping {tuple(mapping.resolution)}"
        )
    return amap.data[mapping.uv[:, 1], mapping.uv[:, 0]].copy()


def locality_score(mapping: MortonMapping, positions) -> float:
    """Mean 3D distance between each kernel and the kernels on its 4-connected
    UV neighbor pixels (invalid pixels contribute nothing)."""
    positions = _frozen(positions, "positions")
    if positions.shape[0] != len(mapping):
        raise InvalidArgumentError("positions must match mapping size")
    if len(mapping) < 2:
        raise InvalidArgumentError("locality score needs at least two kernels")
    grid = mapping.pixel_to_kernel()
    total = 0.0
    count = 0
    # horizontal and vertical adjacencies, each undirected pair once
    for a, b in ((grid[:, :-1], grid[:, 1:]), (grid[:-1, :], grid[1:, :])):
        both = (a >= 0) & (b >= 0)
        if np.any(both):
            d = np.linalg.norm(positions[a[both]] - positions[b[both]], axis=1)
            total += float(d.sum())
            count += d.size
    if count == 0:
        raise InvalidArgumentError("mapping has no adjacent valid pixels")
    return total / count
