"""Scenario configuration, the staged runner, metrics, and reporting.

A scenario walks the provider/user protocol: stage 0 trains the base model
on the first class group and selects its exemplars; every later stage feeds
one new group through the incremental update and re-evaluates the model over
all classes seen so far. Reports carry per-stage accuracy and ACCN (seen
class count times accuracy) plus the ideal ACCN curve for plotting.

Report JSON is canonical: fixed key order, floats rendered at 6 decimal
places, so identical config + seed yields byte-identical files. Stage wall
clock is kept on the in-memory report only.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, numkit
from .continual import (
    ExemplarStore,
    StageContext,
    WA_NORMS,
    build_exemplar_store,
    ccs_stage_update,
)
from .data import (
    LabeledDataset,
    StagePlan,
    SyntheticSpec,
    apply_standardization,
    generate_synthetic,
    load_csv,
    split_stages,
    standardization_stats,
)
from .errors import ConfigError, MappingError
from .model import DISTILL_LOSSES, IncModel, ModelConfig, train_epochs

TOOL_NAME = "inkrementa"


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class CsvSource:
    """Paths of pre-built train/test CSV files."""

    train: str
    test: str


@dataclass(frozen=True)
class ModelSettings:
    """The model section of a scenario config (input_dim comes from the data)."""

    hidden_dims: tuple[int, ...] = (64, 32)
    learning_rate: float = 0.1
    batch_size: int = 32
    epochs_per_stage: int = 30

    def resolve(self, input_dim: int) -> ModelConfig:
        return ModelConfig(
            input_dim=input_dim,
            hidden_dims=self.hidden_dims,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs_per_stage=self.epochs_per_stage,
        )


@dataclass(frozen=True)
class CcsSettings:
    """Stage-context defaults applied at every incremental stage."""

    k: int = 1
    use_exemplars: bool = True
    use_distillation: bool = True
    use_weight_align: bool = True
    distill_loss: str = "mse"
    wa_norm: str = "l2"
    alpha_override: float | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"ccs.k must be >= 1, got {self.k}")
        if self.distill_loss not in DISTILL_LOSSES:
            raise ConfigError(f"ccs.distill_loss must be one of {DISTILL_LOSSES}, got {self.distill_loss!r}")
        if self.wa_norm not in WA_NORMS:
            raise ConfigError(f"ccs.wa_norm must be one of {WA_NORMS}, got {self.wa_norm!r}")
        if self.alpha_override is not None and not 0.0 <= self.alpha_override < 1.0:
            raise ConfigError(f"ccs.alpha_override must be in [0, 1), got {self.alpha_override}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario: seed, data source, plan, model, ccs settings."""

    seed: int
    data: SyntheticSpec | CsvSource
    plan: StagePlan
    model: ModelSettings = ModelSettings()
    ccs: CcsSettings = CcsSettings()

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def echo(self) -> dict:
        """The resolved config as a plain dict, mirroring the file schema."""
        if isinstance(self.data, SyntheticSpec):
            data = {
                "synthetic": {
                    "num_classes": self.data.num_classes,
                    "input_dim": self.data.input_dim,
                    "train_per_class": self.data.train_per_class,
                    "test_per_class": self.data.test_per_class,
                    "center_scale": self.data.center_scale,
                    "stddev": self.data.stddev,
                }
            }
        else:
            data = {"csv": {"train": self.data.train, "test": self.data.test}}
        return {
            "seed": self.seed,
            "data": data,
            "stages": [list(g) for g in self.plan.groups],
            "model": {
                "hidden_dims": list(self.model.hidden_dims),
                "lr": self.model.learning_rate,
                "batch_size": self.model.batch_size,
                "epochs_per_stage": self.model.epochs_per_stage,
            },
            "ccs": {
                "k": self.ccs.k,
                "use_exemplars": self.ccs.use_exemplars,
                "use_distillation": self.ccs.use_distillation,
                "use_weight_align": self.ccs.use_weight_align,
                "distill_loss": self.ccs.distill_loss,
                "wa_norm": self.ccs.wa_norm,
                "alpha_override": self.ccs.alpha_override,
            },
        }


def _require_keys(section: dict, allowed: dict, where: str) -> dict:
    """Strict schema check: unknown keys are config errors, not warnings."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = [k for k, required in allowed.items() if required and k not in section]
    if missing:
        raise ConfigError(f"missing required key(s) in {where}: {missing}")
    return section


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON value kinds a config field may hold; nothing is coerced across kinds.
_KINDS = {
    "an integer": _is_int,
    "a number": _is_number,
    "a boolean": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "a number or null": lambda v: v is None or _is_number(v),
}


def _field(section: dict, key: str, default, kind: str, where: str):
    """``section[key]`` if present and of ``kind``, else ``default`` when absent."""
    if key not in section:
        return default
    value = section[key]
    if not _KINDS[kind](value):
        raise ConfigError(f"{where}.{key} must be {kind}, got {value!r}")
    return value


def parse_config(raw: dict, seed_override: int | None = None) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document, validating fully."""
    _require_keys(raw, {"seed": True, "data": True, "stages": True, "model": False, "ccs": False}, "config")

    seed = raw["seed"] if seed_override is None else seed_override
    if not _is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    data_section = _require_keys(raw["data"], {"synthetic": False, "csv": False}, "data")
    if ("synthetic" in data_section) == ("csv" in data_section):
        raise ConfigError("data must contain exactly one of 'synthetic' or 'csv'")
    if "synthetic" in data_section:
        syn = _require_keys(
            data_section["synthetic"],
            {
                "num_classes": True, "input_dim": True,
                "train_per_class": True, "test_per_class": True,
                "center_scale": False, "stddev": False,
            },
            "data.synthetic",
        )
        where = "data.synthetic"
        data: SyntheticSpec | CsvSource = SyntheticSpec(
            num_classes=_field(syn, "num_classes", None, "an integer", where),
            input_dim=_field(syn, "input_dim", None, "an integer", where),
            train_per_class=_field(syn, "train_per_class", None, "an integer", where),
            test_per_class=_field(syn, "test_per_class", None, "an integer", where),
            center_scale=float(_field(syn, "center_scale", 10.0, "a number", where)),
            stddev=float(_field(syn, "stddev", 1.0, "a number", where)),
            seed=seed,
        )
    else:
        paths = _require_keys(data_section["csv"], {"train": True, "test": True}, "data.csv")
        data = CsvSource(
            train=_field(paths, "train", None, "a string", "data.csv"),
            test=_field(paths, "test", None, "a string", "data.csv"),
        )

    stages = raw["stages"]
    if not isinstance(stages, list) or not all(isinstance(g, list) for g in stages):
        raise ConfigError("stages must be a list of class-id lists")
    plan = StagePlan(tuple(tuple(g) for g in stages))

    model_section = _require_keys(
        raw.get("model", {}),
        {"hidden_dims": False, "lr": False, "batch_size": False, "epochs_per_stage": False},
        "model",
    )
    defaults = ModelSettings()
    model = ModelSettings(
        hidden_dims=tuple(_field(model_section, "hidden_dims", defaults.hidden_dims, "a list of integers", "model")),
        learning_rate=float(_field(model_section, "lr", defaults.learning_rate, "a number", "model")),
        batch_size=_field(model_section, "batch_size", defaults.batch_size, "an integer", "model"),
        epochs_per_stage=_field(model_section, "epochs_per_stage", defaults.epochs_per_stage, "an integer", "model"),
    )

    ccs_section = _require_keys(
        raw.get("ccs", {}),
        {
            "k": False, "use_exemplars": False, "use_distillation": False,
            "use_weight_align": False, "distill_loss": False, "wa_norm": False,
            "alpha_override": False,
        },
        "ccs",
    )
    ccs_defaults = CcsSettings()
    ccs = CcsSettings(
        k=_field(ccs_section, "k", ccs_defaults.k, "an integer", "ccs"),
        use_exemplars=_field(ccs_section, "use_exemplars", ccs_defaults.use_exemplars, "a boolean", "ccs"),
        use_distillation=_field(ccs_section, "use_distillation", ccs_defaults.use_distillation, "a boolean", "ccs"),
        use_weight_align=_field(ccs_section, "use_weight_align", ccs_defaults.use_weight_align, "a boolean", "ccs"),
        distill_loss=_field(ccs_section, "distill_loss", ccs_defaults.distill_loss, "a string", "ccs"),
        wa_norm=_field(ccs_section, "wa_norm", ccs_defaults.wa_norm, "a string", "ccs"),
        alpha_override=_field(ccs_section, "alpha_override", None, "a number or null", "ccs"),
    )

    return ScenarioConfig(seed=seed, data=data, plan=plan, model=model, ccs=ccs)


def load_config(path, seed_override: int | None = None) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw, seed_override=seed_override)


# -- metrics -----------------------------------------------------------------


def accn(n: int, accuracy: float) -> float:
    """Model-value metric: seen-class count times accuracy."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
    return float(n) * float(accuracy)


def evaluate(
    model: IncModel,
    test_sets: list[tuple[int, LabeledDataset]],
) -> tuple[float, list[float]]:
    """Micro-averaged accuracy over the union of groups, plus per-group accuracy."""
    correct = 0
    total = 0
    per_group = []
    for _, dataset in test_sets:
        if dataset.n_samples == 0:
            per_group.append(0.0)
            continue
        if int(dataset.labels.max()) >= model.num_classes:
            raise MappingError(
                f"test labels reach {int(dataset.labels.max())} but model has only "
                f"{model.num_classes} classes"
            )
        logits, _ = model.forward_batch(dataset.features)
        predictions = logits.argmax(axis=1)
        hits = int((predictions == dataset.labels).sum())
        per_group.append(hits / dataset.n_samples)
        correct += hits
        total += dataset.n_samples
    if total == 0:
        raise ValueError("no test samples to evaluate")
    return correct / total, per_group


# -- reports -----------------------------------------------------------------


@dataclass
class StageReport:
    """Metrics of one service stage."""

    stage: int
    n_classes: int
    accuracy: float
    per_group_accuracy: list[float]
    epoch_losses: list[float]
    wall_clock_seconds: float = 0.0
    accn: float = field(init=False)

    def __post_init__(self):
        self.accn = accn(self.n_classes, self.accuracy)

    def to_dict(self) -> dict:
        # wall clock intentionally excluded: reports must be byte-stable
        return {
            "stage": self.stage,
            "n_classes": self.n_classes,
            "accuracy": self.accuracy,
            "accn": self.accn,
            "per_group_accuracy": list(self.per_group_accuracy),
            "epoch_losses": list(self.epoch_losses),
        }


@dataclass
class RunReport:
    """One scenario run: config echo, per-stage metrics, ideal ACCN curve."""

    run_id: str
    seed: int
    config_echo: dict
    stage_reports: list[StageReport]

    @property
    def final(self) -> StageReport:
        return self.stage_reports[-1]

    @property
    def ideal_accn(self) -> list[int]:
        return [r.n_classes for r in self.stage_reports]

    def to_dict(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": __version__,
            "run_id": self.run_id,
            "seed": self.seed,
            "config": self.config_echo,
            "stages": [r.to_dict() for r in self.stage_reports],
            "ideal_accn": self.ideal_accn,
            "final": {
                "stage": self.final.stage,
                "n_classes": self.final.n_classes,
                "accuracy": self.final.accuracy,
                "accn": self.final.accn,
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict()) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 6 decimal places."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6f")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


# -- the staged runner ---------------------------------------------------------


def _load_pools(config: ScenarioConfig) -> tuple[LabeledDataset, LabeledDataset]:
    if isinstance(config.data, SyntheticSpec):
        return generate_synthetic(replace(config.data, seed=config.seed))
    train = load_csv(config.data.train, has_header=_sniff_header(config.data.train))
    test = load_csv(config.data.test, has_header=_sniff_header(config.data.test))
    return train, test


def _sniff_header(path) -> bool:
    """A CSV starts with a header iff its first cell is not an integer label."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    try:
        int(first.split(",", 1)[0])
        return False
    except ValueError:
        return True


def run_scenario(config: ScenarioConfig, run_id: str | None = None) -> RunReport:
    """Execute every stage of a scenario and report per-stage metrics.

    Stage 0 trains the base model with plain cross-entropy and selects its
    exemplars; each later stage runs the incremental update and is evaluated
    over all groups seen so far. Deterministic per (config, seed).
    """
    if run_id is None:
        run_id = f"run-seed{config.seed}"
    train_pool, test_pool = _load_pools(config)
    stages, _ = split_stages(train_pool, test_pool, config.plan)

    stats = standardization_stats(stages[0][0])
    stages = [
        (apply_standardization(tr, stats), apply_standardization(te, stats))
        for tr, te in stages
    ]

    model_cfg = config.model.resolve(train_pool.input_dim)
    rng = numkit.make_rng(config.seed, stream=1)

    reports: list[StageReport] = []
    seen_tests: list[tuple[int, LabeledDataset]] = []

    base_train, base_test = stages[0]
    t0 = time.perf_counter()
    model = IncModel.init(model_cfg, len(base_train.class_ids), rng)
    losses = train_epochs(model, base_train.features, base_train.labels, rng)
    store = build_exemplar_store(model, base_train, config.ccs.k)
    seen_tests.append((0, base_test))
    overall, per_group = evaluate(model, seen_tests)
    reports.append(
        StageReport(
            stage=0,
            n_classes=model.num_classes,
            accuracy=overall,
            per_group_accuracy=per_group,
            epoch_losses=losses,
            wall_clock_seconds=time.perf_counter() - t0,
        )
    )

    for i in range(1, config.plan.num_stages):
        stage_train, stage_test = stages[i]
        t0 = time.perf_counter()
        ctx = StageContext(
            u=model.num_classes,
            v=len(stage_train.class_ids),
            k=config.ccs.k,
            use_exemplars=config.ccs.use_exemplars,
            use_distillation=config.ccs.use_distillation,
            use_weight_align=config.ccs.use_weight_align,
            distill_loss=config.ccs.distill_loss,
            wa_norm=config.ccs.wa_norm,
            alpha=config.ccs.alpha_override,
        )
        try:
            model, store, losses = ccs_stage_update(model, stage_train, store, ctx, model_cfg, rng)
        except Exception as exc:
            raise RuntimeError(f"stage {i} failed: {exc}") from exc
        seen_tests.append((i, stage_test))
        overall, per_group = evaluate(model, seen_tests)
        reports.append(
            StageReport(
                stage=i,
                n_classes=model.num_classes,
                accuracy=overall,
                per_group_accuracy=per_group,
                epoch_losses=losses,
                wall_clock_seconds=time.perf_counter() - t0,
            )
        )

    return RunReport(run_id=run_id, seed=config.seed, config_echo=config.echo(), stage_reports=reports)


# -- ablation orchestration ------------------------------------------------------

ABLATION_PRESETS: dict[str, list[tuple[str, dict]]] = {
    "components": [
        ("baseline", {"use_exemplars": False, "use_distillation": False, "use_weight_align": False}),
        ("KD+WA", {"use_exemplars": False, "use_distillation": True, "use_weight_align": True}),
        ("E", {"use_exemplars": True, "use_distillation": False, "use_weight_align": False}),
        ("E+KD", {"use_exemplars": True, "use_distillation": True, "use_weight_align": False}),
        ("E+WA", {"use_exemplars": True, "use_distillation": False, "use_weight_align": True}),
        ("E+KD+WA", {"use_exemplars": True, "use_distillation": True, "use_weight_align": True}),
    ],
    "losses": [
        ("MSE", {"distill_loss": "mse"}),
        ("KLD", {"distill_loss": "kld"}),
        ("L1", {"distill_loss": "l1"}),
    ],
    "norms": [
        ("L2", {"wa_norm": "l2"}),
        ("L1-norm", {"wa_norm": "l1"}),
    ],
}


def run_ablation(
    config: ScenarioConfig,
    matrix: list[tuple[str, dict]],
    seeds: int = 3,
) -> tuple[list[RunReport], list[dict]]:
    """One run per (variant, seed); returns all reports plus a comparison table.

    Each matrix entry is (label, ccs-field overrides). Variants that resolve
    to identical settings are deduplicated with a warning. Seeds are the base
    seed, +1, ..., +seeds-1.
    """
    if not matrix:
        raise ValueError("ablation matrix is empty")
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")

    variants: list[tuple[str, CcsSettings]] = []
    seen_settings: dict[CcsSettings, str] = {}
    for label, overrides in matrix:
        settings = replace(config.ccs, **overrides)
        if settings in seen_settings:
            warnings.warn(
                f"ablation variant {label!r} duplicates {seen_settings[settings]!r}; skipped",
                stacklevel=2,
            )
            continue
        seen_settings[settings] = label
        variants.append((label, settings))

    reports: list[RunReport] = []
    table: list[dict] = []
    for label, settings in variants:
        finals_acc, finals_accn = [], []
        for offset in range(seeds):
            seed = config.seed + offset
            variant_config = replace(config, seed=seed, ccs=settings)
            if isinstance(variant_config.data, SyntheticSpec):
                variant_config = replace(variant_config, data=replace(variant_config.data, seed=seed))
            report = run_scenario(variant_config, run_id=f"{label}-seed{seed}")
            reports.append(report)
            finals_acc.append(report.final.accuracy)
            finals_accn.append(report.final.accn)
        table.append(
            {
                "method": label,
                "seeds": seeds,
                "final_accuracy_mean": float(np.mean(finals_acc)),
                "final_accuracy_std": float(np.std(finals_acc)),
                "final_accn_mean": float(np.mean(finals_accn)),
                "final_accn_std": float(np.std(finals_accn)),
            }
        )
    return reports, table


# -- flat CSV output ---------------------------------------------------------


def write_summary_csv(reports: list[RunReport], path) -> None:
    """One row per (run, stage), plus a final row per run."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "seed", "stage", "N", "accuracy", "accn"])
        for report in reports:
            for stage in report.stage_reports:
                writer.writerow(
                    [
                        report.run_id,
                        report.seed,
                        stage.stage,
                        stage.n_classes,
                        format(stage.accuracy, ".6f"),
                        format(stage.accn, ".6f"),
                    ]
                )
        for report in reports:
            final = report.final
            writer.writerow(
                [
                    report.run_id,
                    report.seed,
                    "final",
                    final.n_classes,
                    format(final.accuracy, ".6f"),
                    format(final.accn, ".6f"),
                ]
            )


def write_comparison_csv(table: list[dict], path) -> None:
    """Ablation comparison table; the method column admits external baselines."""
    columns = [
        "method",
        "seeds",
        "final_accuracy_mean",
        "final_accuracy_std",
        "final_accn_mean",
        "final_accn_std",
    ]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in table:
            writer.writerow(
                [
                    row["method"],
                    row["seeds"],
                    format(row["final_accuracy_mean"], ".6f"),
                    format(row["final_accuracy_std"], ".6f"),
                    format(row["final_accn_mean"], ".6f"),
                    format(row["final_accn_std"], ".6f"),
                ]
            )
