"""Desk-scale building blocks for oriented object detection research under
sparse and weak annotation: sparse-aware losses with analytic gradients,
Voronoi-watershed scale targets, per-level mixture-model pseudo-label
filtering, teacher-student staging, and dataset sparsification tools."""

__version__ = "0.1.0"

from .errors import (
    DegenerateInputError,
    DotaParseError,
    InvalidInputError,
    LineError,
    NumericalDegeneracyError,
)
from .geometry import (
    HorizontalBox,
    OrientedBox,
    bhattacharyya_boxes,
    box_rows,
    corners_of_boxes,
    gwd_squared,
    normalize_angle,
)
from .losses import (
    Augmentation,
    Flip,
    FocalParams,
    LossValueGrad,
    PredictionTriple,
    Rotate,
    SampleKind,
    SupervisedWeights,
    angle_loss,
    gaussian_overlap_loss,
    smooth_l1,
    sparse_cls_loss,
    total_loss,
    total_supervised_loss,
    unsupervised_loss,
    watershed_loss,
)
from .layout import (
    gradient_magnitude,
    read_pgm,
    scale_targets,
    voronoi_partition,
    watershed_segment,
    write_pgm,
)
from .filtering import (
    FilterMode,
    GmmFit,
    LevelDecision,
    LevelScores,
    PyramidLevel,
    fit_gmm,
    is_degenerate_level,
    level_decisions,
    threshold_from_fit,
)
from .pipeline import (
    DEFAULT_BURN_IN_ITERS,
    DEFAULT_EMA_MOMENTUM,
    LevelPlan,
    PairedSummary,
    SimScenario,
    SimulationReport,
    Stage,
    StageState,
    advance_stage,
    ema_update,
    load_scenario,
    paired_comparison,
    parse_scenario,
    run_simulation,
    sign_test_p_value,
)
from .dataset import (
    AnnotationSet,
    CategoryRow,
    CategoryStats,
    WeakKind,
    compare_counts,
    load_dota_dir,
    parse_dota,
    round_half_up,
    select_partial,
    serialize_dota,
    sparsify_overall,
    sparsify_single,
    weaken_corners,
    write_dota_dir,
)
