"""Dataset construction: synthetic Gaussians, CSV ingestion, stage splits.

The synthetic generator is the default corpus: class-conditional Gaussians
whose centers are drawn once per seed, giving controllable separability so
that forgetting effects are attributable to the learning algorithm rather
than the data. CSV is the sole external format ("label,f1,...,fD").
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numkit
from .errors import ConfigError, ParseError, PlanError


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    class_ids: tuple[int, ...] = field(default=())

    def __post_init__(self):
        features = numkit.as_matrix(self.features, "features")
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels shape {labels.shape} does not match {features.shape[0]} feature rows"
            )
        class_ids = self.class_ids or tuple(dict.fromkeys(labels.tolist()))
        present = set(labels.tolist())
        if not present.issubset(set(class_ids)):
            raise ValueError(f"labels {sorted(present - set(class_ids))} not in class_ids")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_ids", tuple(int(c) for c in class_ids))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def class_rows(self, class_id: int) -> np.ndarray:
        """Feature rows of one class, in dataset order."""
        return self.features[self.labels == class_id]


@dataclass(frozen=True)
class StagePlan:
    """Ordered class-id groups: group 0 is the base service, the rest increments."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(c) for c in g) for g in self.groups)
        if not groups or any(len(g) == 0 for g in groups):
            raise PlanError("plan must contain at least one nonempty group per stage")
        flat = [c for g in groups for c in g]
        if len(flat) != len(set(flat)):
            dupes = sorted({c for c in flat if flat.count(c) > 1})
            raise PlanError(f"plan groups overlap on class ids {dupes}")
        object.__setattr__(self, "groups", groups)


@dataclass(frozen=True)
class SyntheticSpec:
    """Class-conditional Gaussian corpus parameters."""

    num_classes: int
    input_dim: int
    train_per_class: int
    test_per_class: int
    center_scale: float = 10.0
    stddev: float = 1.0

    def __post_init__(self):
        if self.num_classes < 1 or self.input_dim < 1:
            raise ConfigError("num_classes and input_dim must be >= 1")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ConfigError("per-class sample counts must be >= 1")
        if not self.stddev > 0:
            raise ConfigError(f"stddev must be > 0, got {self.stddev}")
        if not self.center_scale >= 0:
            raise ConfigError(f"center_scale must be >= 0, got {self.center_scale}")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Draw disjoint train/test pools; class c ~ Gaussian(center_c, stddev^2 I).

    Centers are drawn once from Gaussian(0, center_scale^2 I) using ``seed``,
    then per class the train block is drawn before the test block, so the
    whole corpus is a pure function of the spec and the seed.
    """
    rng = numkit.make_rng(seed)
    centers = rng.normal(0.0, spec.center_scale, size=(spec.num_classes, spec.input_dim))

    train_x, train_y, test_x, test_y = [], [], [], []
    for c in range(spec.num_classes):
        train_x.append(rng.normal(centers[c], spec.stddev, size=(spec.train_per_class, spec.input_dim)))
        test_x.append(rng.normal(centers[c], spec.stddev, size=(spec.test_per_class, spec.input_dim)))
        train_y.append(np.full(spec.train_per_class, c, dtype=np.int64))
        test_y.append(np.full(spec.test_per_class, c, dtype=np.int64))

    class_ids = tuple(range(spec.num_classes))
    train = LabeledDataset(np.vstack(train_x), np.concatenate(train_y), class_ids=class_ids)
    test = LabeledDataset(np.vstack(test_x), np.concatenate(test_y), class_ids=class_ids)
    return train, test


def read_utf8(path, error: type[Exception]) -> str:
    """A UTF-8 file's text minus one leading BOM; other bytes raise ``error`` naming the file and line."""
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line} is not valid UTF-8") from None


def read_json(path, error: type[Exception]):
    """A UTF-8 file's JSON; invalid JSON and non-finite numbers raise ``error`` naming the file."""

    def finite(token: str) -> float:
        if not math.isfinite(value := float(token)):
            raise error(f"{path}: {token} is not a finite number")
        return value

    try:
        return json.loads(read_utf8(path, error), parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc


def _feature(cell: str) -> float:
    """``float(cell)``, refusing what the CSV format does not allow: ``_``, nan and inf."""
    value = float(cell)
    if "_" in cell or not math.isfinite(value):
        raise ValueError(cell)
    return value


def load_csv(path) -> LabeledDataset:
    """Parse "label,f1,...,fD" rows; ragged or non-numeric rows are rejected.

    The header is optional: line 1 is a header iff its label cell is not an
    integer. Labels fit in int64; every other cell is a finite number written
    without ``_``. Error messages cite 1-based line numbers (a header is line 1).
    """
    features: list[list[float]] = []
    labels: list[int] = []
    dim: int | None = None
    reader = csv.reader(io.StringIO(read_utf8(path, ParseError), newline=""))
    for lineno, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue
        try:
            label = int(row[0])
        except ValueError:
            if lineno == 1:  # a header names its columns
                continue
            raise ParseError(f"label {row[0]!r} is not an integer", lineno) from None
        if len(row) < 2:
            raise ParseError(f"expected 'label,f1,...' but found {len(row)} field(s)", lineno)
        if not 0 <= label < 2**63 or "_" in row[0]:
            raise ParseError(f"label must be a non-negative 64-bit integer, got {row[0]!r}", lineno)
        try:
            values = [_feature(cell) for cell in row[1:]]
        except ValueError:
            raise ParseError(f"feature cells must be finite numbers, got {row[1:]!r}", lineno) from None
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ParseError(f"row has {len(values)} features, expected {dim}", lineno)
        labels.append(label)
        features.append(values)

    if not features:
        raise ParseError(f"{path} contains no data rows")
    return LabeledDataset(np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64))


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a "label,f1,...,fD" header, then one row per sample (repr floats, lossless)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i + 1}" for i in range(dataset.input_dim)])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def split_stages(
    train: LabeledDataset,
    test: LabeledDataset,
    plan: StagePlan,
) -> list[tuple[LabeledDataset, LabeledDataset]]:
    """Per-stage (train, test) datasets; the i-th class of the plan gets label i.

    Remapped ids are thus contiguous 0..N-1 in stage-visit order (within a
    group, the plan's listed order), and rows keep their dataset order. The
    plan must cover the dataset's class ids exactly, and every stage needs at
    least one train row and one test row.
    """
    remap = {c: new for new, c in enumerate(c for g in plan.groups for c in g)}
    universe = set(train.class_ids) | set(test.class_ids)
    if missing := universe - remap.keys():
        raise PlanError(f"plan misses class ids {sorted(missing)}")
    if extra := remap.keys() - universe:
        raise PlanError(f"plan lists unknown class ids {sorted(extra)}")

    stages = []
    for i, group in enumerate(plan.groups):
        ids = tuple(remap[c] for c in group)
        pair = []
        for pool, dataset in (("train", train), ("test", test)):
            mask = np.isin(dataset.labels, group)
            if not mask.any():
                raise PlanError(f"stage {i} (classes {list(group)}) has no {pool} rows")
            labels = [remap[c] for c in dataset.labels[mask].tolist()]
            pair.append(LabeledDataset(dataset.features[mask], labels, class_ids=ids))
        stages.append(tuple(pair))
    return stages


def standardization_stats(dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and stddev over a training pool; zero spread maps to 1."""
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def apply_standardization(dataset: LabeledDataset, stats: tuple[np.ndarray, np.ndarray]) -> LabeledDataset:
    mean, std = stats
    return LabeledDataset((dataset.features - mean) / std, dataset.labels, class_ids=dataset.class_ids)
