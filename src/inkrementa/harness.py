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
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, numkit
from .continual import CcsSettings, build_exemplar_store, ccs_stage_update
from .data import (
    LabeledDataset,
    StagePlan,
    SyntheticSpec,
    apply_standardization,
    generate_synthetic,
    load_csv,
    read_json,
    split_stages,
    standardization_stats,
)
from .errors import ConfigError, ParseError
from .model import IncModel, ModelConfig, train_epochs

TOOL_NAME = "inkrementa"


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class CsvSource:
    """Paths of pre-built train/test CSV files."""

    train: str
    test: str


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario: seed, data source, plan, model, ccs settings.

    A synthetic corpus is drawn with the scenario seed.
    """

    seed: int
    data: SyntheticSpec | CsvSource
    plan: StagePlan
    model: ModelConfig = ModelConfig()
    ccs: CcsSettings = CcsSettings()

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def echo(self) -> dict:
        """The resolved config as a plain dict, mirroring the file schema."""
        source = next(key for key, cls in _DATA_SOURCES.items() if isinstance(self.data, cls))
        return {
            "seed": self.seed,
            "data": {source: _echo_section(self.data)},
            "stages": [list(g) for g in self.plan.groups],
            "model": _echo_section(self.model),
            "ccs": _echo_section(self.ccs),
        }


_DATA_SOURCES = {"synthetic": SyntheticSpec, "csv": CsvSource}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The JSON kind a field's annotation admits, and the conversion of a value of
# that kind; nothing is coerced across kinds. Keys are the annotations as written:
# every config and report dataclass module postpones annotation evaluation.
_KINDS = {
    "int": ("an integer", _is_int, int),
    "float": ("a number", _is_number, float),
    "bool": ("a boolean", lambda v: isinstance(v, bool), bool),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "tuple[int, ...]": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)), tuple),
    "float | None": ("a number or null", lambda v: v is None or _is_number(v), lambda v: v if v is None else float(v)),
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


def _parse_section(cls, section: dict, where: str):
    """``cls`` from one JSON object: a field without a default is a required key."""
    _require_keys(section, {f.name: f.default is MISSING for f in fields(cls)}, where)
    values = {}
    for f in fields(cls):
        if f.name in section:
            kind, check, convert = _KINDS[f.type]
            if not check(section[f.name]):
                raise ConfigError(f"{where}.{f.name} must be {kind}, got {section[f.name]!r}")
            values[f.name] = convert(section[f.name])
    return cls(**values)


def _echo_section(section) -> dict:
    """The file form of one config section: ``_parse_section`` reads it back."""
    return {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(section).items()}


def parse_config(raw: dict, seed_override: int | None = None) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document, validating fully."""
    _require_keys(raw, {"seed": True, "data": True, "stages": True, "model": False, "ccs": False}, "config")

    seed = raw["seed"] if seed_override is None else seed_override
    if not _is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    data_section = _require_keys(raw["data"], dict.fromkeys(_DATA_SOURCES, False), "data")
    if len(data_section) != 1:
        raise ConfigError(f"data must contain exactly one of {' or '.join(map(repr, _DATA_SOURCES))}")
    [(source, section)] = data_section.items()
    data = _parse_section(_DATA_SOURCES[source], section, f"data.{source}")

    stages = raw["stages"]
    if not isinstance(stages, list) or not all(isinstance(g, list) and all(map(_is_int, g)) for g in stages):
        raise ConfigError("stages must be a list of class-id lists")
    plan = StagePlan(tuple(tuple(g) for g in stages))

    model = _parse_section(ModelConfig, raw.get("model", {}), "model")
    ccs = _parse_section(CcsSettings, raw.get("ccs", {}), "ccs")
    return ScenarioConfig(seed=seed, data=data, plan=plan, model=model, ccs=ccs)


def load_config(path, seed_override: int | None = None) -> ScenarioConfig:
    return parse_config(read_json(path, ConfigError), seed_override=seed_override)


# -- metrics -----------------------------------------------------------------


def accn(n: int, accuracy: float) -> float:
    """Model-value metric: seen-class count times accuracy.

    A stage report passes ``model.num_classes`` (stage 0's group is
    non-empty) and the hit fraction ``evaluate`` returns; neither is checked.
    """
    return float(n) * float(accuracy)


def evaluate(
    model: IncModel,
    test_sets: list[tuple[int, LabeledDataset]],
) -> tuple[float, list[float]]:
    """Micro-averaged accuracy over the union of groups, plus per-group accuracy.

    Expects what ``split_stages`` guarantees: each dataset has a row
    (``PlanError`` otherwise) and only labels remapped to seen classes.
    """
    correct = 0
    total = 0
    per_group = []
    for _, dataset in test_sets:
        logits, _ = model.forward_batch(dataset.features)
        predictions = logits.argmax(axis=1)
        hits = int((predictions == dataset.labels).sum())
        per_group.append(hits / dataset.n_samples)
        correct += hits
        total += dataset.n_samples
    return correct / total, per_group


# -- reports -----------------------------------------------------------------


# The metrics of a stage entry and of the final block, in report order.
STAGE_METRICS = ("n_classes", "accuracy", "accn")


@dataclass
class StageReport:
    """Metrics of one service stage; fields are in report order."""

    stage: int
    n_classes: int
    accuracy: float
    accn: float = field(init=False)
    per_group_accuracy: list[float]
    epoch_losses: list[float]
    wall_clock_seconds: float = 0.0

    def __post_init__(self):
        self.accn = accn(self.n_classes, self.accuracy)

    def to_dict(self) -> dict:
        doc = asdict(self)
        del doc["wall_clock_seconds"]  # reports must be byte-stable
        return doc


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
            "final": {key: getattr(self.final, key) for key in ("stage", *STAGE_METRICS)},
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict()) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


def read_run_report(path) -> dict:
    """A run report's JSON; each field the summary CSV reads holds its annotation's kind."""
    doc = read_json(path, ParseError)
    types = {f.name: f.type for f in (*fields(RunReport), *fields(StageReport))}

    def check(entry, where: str, keys) -> None:
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: {where or 'the report'} must be a JSON object; not a run report")
        for key in keys:
            kind, is_kind, _ = _KINDS[types[key]]
            if key not in entry or not is_kind(entry[key]):
                name = f"{where}.{key}" if where else key
                raise ParseError(f"{path}: {name} must be {kind}; not a run report")

    check(doc, "", ("run_id", "seed"))
    if not isinstance(doc.get("stages"), list):
        raise ParseError(f"{path}: stages must be a list; not a run report")
    for i, stage in enumerate(doc["stages"]):
        check(stage, f"stages[{i}]", ("stage", *STAGE_METRICS))
    check(doc.get("final"), "final", STAGE_METRICS)
    return doc


def _fixed(value) -> str:
    """The one rendering of a float in reports and CSVs: 6 decimal places."""
    return format(float(value), ".6f")


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
        return _fixed(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


# -- the staged runner ---------------------------------------------------------


def _load_pools(config: ScenarioConfig) -> tuple[LabeledDataset, LabeledDataset]:
    if isinstance(config.data, SyntheticSpec):
        return generate_synthetic(config.data, config.seed)
    train, test = load_csv(config.data.train), load_csv(config.data.test)
    if train.input_dim != test.input_dim:
        raise ParseError(
            f"{config.data.train} has {train.input_dim} features per row "
            f"but {config.data.test} has {test.input_dim}"
        )
    return train, test


@contextmanager
def _stage(i: int):
    """Name the stage in any error raised inside, keeping the error's type."""
    try:
        yield
    except Exception as exc:
        exc.args = (f"stage {i} failed: {exc}",)
        raise


def _stage_report(i: int, model: IncModel, seen_tests, losses: list[float], t0: float) -> StageReport:
    """Evaluate ``model`` over every group seen so far and report stage ``i``."""
    overall, per_group = evaluate(model, seen_tests)
    return StageReport(
        stage=i,
        n_classes=model.num_classes,
        accuracy=overall,
        per_group_accuracy=per_group,
        epoch_losses=losses,
        wall_clock_seconds=time.perf_counter() - t0,
    )


def _base_key(config: ScenarioConfig) -> tuple:
    """Everything stage 0 depends on; the ccs toggles act from stage 1 on."""
    return (config.seed, config.data, config.plan, config.model, config.ccs.k)


@dataclass(frozen=True)
class BaseStage:
    """Stage 0 of a scenario: the state every later stage starts from.

    Holds the standardized (train, test) pair of every stage, the base model,
    its exemplar store, the training RNG's state after stage 0, and the
    stage-0 report. Nothing downstream mutates the model, the store or the
    report (a stage update trains a copy of the model and returns a new store
    of the same read-only rows), so one BaseStage serves any number of runs
    that share its key.
    """

    key: tuple
    stages: list[tuple[LabeledDataset, LabeledDataset]]
    model: IncModel
    store: dict[int, np.ndarray]
    rng_state: dict
    report: StageReport


def run_base_stage(config: ScenarioConfig) -> BaseStage:
    """Load and standardize the data, train the base model, select its exemplars.

    Stage 0 trains with plain cross-entropy on RNG stream 1 and is evaluated
    on its own group. An error raised while it runs keeps its type; its
    message names stage 0.
    """
    train_pool, test_pool = _load_pools(config)
    stages = split_stages(train_pool, test_pool, config.plan)

    stats = standardization_stats(stages[0][0])
    stages = [
        (apply_standardization(tr, stats), apply_standardization(te, stats))
        for tr, te in stages
    ]

    rng = numkit.make_rng(config.seed, stream=1)
    stage_train, stage_test = stages[0]
    t0 = time.perf_counter()
    with _stage(0):
        model = IncModel.init(config.model, train_pool.input_dim, len(stage_train.class_ids), rng)
        losses = train_epochs(model, stage_train.features, stage_train.labels, rng)
        store = build_exemplar_store(model, stage_train, config.ccs.k)
        report = _stage_report(0, model, [(0, stage_test)], losses, t0)
    return BaseStage(_base_key(config), stages, model, store, rng.bit_generator.state, report)


def run_scenario(config: ScenarioConfig, run_id: str | None = None, base: BaseStage | None = None) -> RunReport:
    """Execute every stage of a scenario and report per-stage metrics.

    Stage 0 comes from ``base``, or from ``run_base_stage(config)`` when no
    base is given; each later stage runs the incremental update and is
    evaluated over all groups seen so far. The report is the same either way,
    and deterministic per (config, seed). An error raised while a stage runs
    keeps its type; its message names the stage.
    """
    if run_id is None:
        run_id = f"run-seed{config.seed}"
    if base is None:
        base = run_base_stage(config)
    elif base.key != _base_key(config):
        raise ValueError("base stage was computed for another seed, data source, plan, model or k")

    rng = numkit.make_rng(config.seed, stream=1)
    rng.bit_generator.state = base.rng_state
    model, store = base.model, base.store
    reports = [base.report]
    seen_tests = [(0, base.stages[0][1])]

    for i, (stage_train, stage_test) in enumerate(base.stages[1:], start=1):
        t0 = time.perf_counter()
        with _stage(i):
            model, store, losses = ccs_stage_update(model, stage_train, store, config.ccs, rng)
            seen_tests.append((i, stage_test))
            reports.append(_stage_report(i, model, seen_tests, losses, t0))

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
    seeds: int,
) -> tuple[list[RunReport], list[dict]]:
    """One run per (variant, seed); returns all reports plus a comparison table.

    Each matrix entry is (label, ccs-field overrides), run as given. Seeds are
    the base seed, +1, ..., +seeds-1. Stage 0 is run once per (seed, k) and
    shared by every variant with that seed and k; each report is the one a
    standalone ``run_scenario`` of the variant would give.
    """
    if not matrix:
        raise ValueError("ablation matrix is empty")
    if seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {seeds}")

    bases: dict[tuple, BaseStage] = {}
    reports: list[RunReport] = []
    table: list[dict] = []
    for label, overrides in matrix:
        finals_acc, finals_accn = [], []
        for offset in range(seeds):
            seed = config.seed + offset
            run_config = replace(config, seed=seed, ccs=replace(config.ccs, **overrides))
            key = _base_key(run_config)
            if key not in bases:
                bases[key] = run_base_stage(run_config)
            report = run_scenario(run_config, run_id=f"{label}-seed{seed}", base=bases[key])
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


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_summary_csv(reports: list[RunReport | dict], path) -> None:
    """One row per (run, stage), plus a final row per run.

    Takes run reports or their dict form, as read back from report JSON.
    """
    docs = [r.to_dict() if isinstance(r, RunReport) else r for r in reports]
    stages = [(doc, stage) for doc in docs for stage in doc["stages"]]
    stages += [(doc, {**doc["final"], "stage": "final"}) for doc in docs]
    rows = [
        [doc["run_id"], doc["seed"], s["stage"], s["n_classes"], _fixed(s["accuracy"]), _fixed(s["accn"])]
        for doc, s in stages
    ]
    _write_csv(path, ["run_id", "seed", "stage", "N", "accuracy", "accn"], rows)


def write_comparison_csv(table: list[dict], path) -> None:
    """Ablation comparison table, one column per key of ``run_ablation``'s rows."""
    rows = [[_fixed(v) if isinstance(v, float) else v for v in row.values()] for row in table]
    _write_csv(path, list(table[0]), rows)
