"""Cross-model embedding alignment, verification ROC tooling, and
re-identification experiments."""

from .errors import (
    AlignmentError,
    ConsistencyError,
    CorruptMapError,
    DataError,
    DimensionError,
    EmbAlignError,
    FileFormatError,
    ProtocolError,
    TruncationError,
    UnknownIdError,
)
from .store import (
    EmbeddingSet,
    MediaEntry,
    MediaManifest,
    PairList,
    align_pairs,
    load_embeddings,
    load_manifest,
    load_pairs,
    save_embeddings,
    save_manifest,
    save_pairs,
)
from .mapping import (
    IDENTITY,
    LINEAR,
    ROTATION,
    FitReport,
    MappingMatrix,
    apply_map,
    fit,
    fit_linear,
    fit_rotation,
    identity_map,
    load_map,
    save_map,
    save_mapped,
)
from .verification import (
    EvalPlan,
    RocReport,
    ScoredPairs,
    TemplateSet,
    build_templates,
    roc,
    score_pairs,
    scores_to_csv,
)
from .synthetic import SynthSpec, derive_model, generate_world, random_rotation
from .experiments import (
    DEFAULT_FARS,
    DIAGONAL_KIND,
    AttackResult,
    GridCell,
    GridResult,
    SweepPoint,
    SweepResult,
    run_attack,
    run_grid,
    run_sweep,
    sample_eval_pairs,
    split_attack,
    split_by_template,
    subject_gallery,
)

__version__ = "0.1.0"
