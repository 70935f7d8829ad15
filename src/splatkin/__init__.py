"""Gaussian-splat scene tracking, skinning, map packing, and motion retargeting."""

from .core import (
    GaussianSet,
    NeighborGraph,
    PointCloud,
    Role,
    knn_build,
    quat_blend,
    quat_inverse,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_to_matrix,
)
from .energy import (
    EnergyEval,
    e_arap,
    e_data_points,
    e_iso,
    e_l2_gauss,
    e_mask,
    e_sem,
    e_size,
)
from .errors import (
    CapacityError,
    DegenerateBlendError,
    FormatError,
    InvalidArgumentError,
    SplatkinError,
    TruncationError,
)
from .morton import (
    AttributeMap,
    MortonMapping,
    build_mapping,
    locality_score,
    morton_decode,
    morton_encode,
    pack_map,
    unpack_map,
)
from .render import OrthoCamera, RenderOutput, splat
from .warp import (
    FrameMotion,
    apply_motion,
    assemble,
    disassemble,
    relative_motion,
    warp_appearance,
)

__version__ = "0.1.0"
