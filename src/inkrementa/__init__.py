"""Class-incremental learning with exemplars, distillation, and weight aligning."""

__version__ = "0.1.0"

from .continual import (
    CcsSettings,
    build_exemplar_store,
    ccs_stage_update,
    herding_select,
    weight_align,
)
from .data import (
    LabeledDataset,
    StagePlan,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split_stages,
)
from .errors import (
    ConfigError,
    DegenerateHeadError,
    DivergenceError,
    InkrementaError,
    NonFiniteError,
    ParseError,
    PlanError,
    ShapeError,
)
from .harness import (
    BaseStage,
    RunReport,
    ScenarioConfig,
    StageReport,
    accn,
    evaluate,
    load_config,
    parse_config,
    run_ablation,
    run_base_stage,
    run_scenario,
)
from .model import IncModel, ModelConfig, TeacherSnapshot, train_epochs

__all__ = [
    "__version__",
    "BaseStage",
    "CcsSettings",
    "ConfigError",
    "DegenerateHeadError",
    "DivergenceError",
    "IncModel",
    "InkrementaError",
    "LabeledDataset",
    "ModelConfig",
    "NonFiniteError",
    "ParseError",
    "PlanError",
    "RunReport",
    "ScenarioConfig",
    "ShapeError",
    "StagePlan",
    "StageReport",
    "SyntheticSpec",
    "TeacherSnapshot",
    "accn",
    "build_exemplar_store",
    "ccs_stage_update",
    "evaluate",
    "generate_synthetic",
    "herding_select",
    "load_config",
    "load_csv",
    "parse_config",
    "run_ablation",
    "run_base_stage",
    "run_scenario",
    "save_csv",
    "split_stages",
    "train_epochs",
    "weight_align",
]
