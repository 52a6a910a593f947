"""(2.5+1)D spatio-temporal scene graphs with hierarchical kernel-transformer QA."""

from .attention import DEFAULT_BANDWIDTHS
from .compact import (
    MatchParams,
    build_ancestors,
    compact,
    corpus_stats,
)
from .errors import ParseError, PrismError, ValidationError
from .graph import (
    ClassEntry,
    ClassRegistry,
    SceneGraph25D,
    graphs_from_records,
    load_corpus,
    load_detection_groups,
    save_corpus,
)
from .lift import Intrinsics, default_intrinsics, estimate_rigid, lift_centroid
from .numcore import Adam, Affine, Tensor, backward, softmax_rows
from .qa import (
    ModelConfig,
    QaInstance,
    QaModel,
    TrainConfig,
    evaluate,
    init_model,
    load_model,
    load_qa,
    save_model,
    save_qa,
    train,
)
from .register import estimate_frame_transforms, register_frames, register_graphs
from .synthworld import (
    CameraSpec,
    GroundTruth,
    NoiseSpec,
    WorldSpec,
    build_world,
    default_registry,
    generate_qa,
    oracle_merge,
)

__version__ = "0.1.0"
