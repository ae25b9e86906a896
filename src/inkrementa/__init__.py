"""Class-incremental learning with exemplars, distillation, and weight aligning.

Thread policy: importing the package sets ``OPENBLAS_NUM_THREADS`` to 1,
unless it is already set, before numpy first loads. A matrix product of the
engine has at most ``batch_size`` rows; at the default widths and batch size
that stays below the size at which OpenBLAS hands a product to its helper
threads (M*N*K >= 2**19), so a helper would do no work. It would only
busy-wait: once when the library loads, and again after any product that does
cross that size. The default corpus gives the same report bytes under one and
two threads (README, Reproducibility). A value set in the environment is
kept, and a process that imported numpy before the package keeps numpy's
threads.
"""

import os

# Before the first submodule import: numpy first loads through `.continual`,
# and OpenBLAS reads this variable once, when it loads. Its helper threads
# start spinning at that moment, so no later call can take the cost back.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
