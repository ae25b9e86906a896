"""Continual-learning core: herding exemplar selection, staged model updates
with teacher-student distillation, and head weight aligning.

A stage update takes the previous model and a disjoint block of new classes,
widens the prediction head, and trains on the new data mixed with the
retained exemplars of every earlier class. Distillation pins the student's
old-class logits to the frozen previous model; weight aligning then rescales
the new head rows so their mean norm matches the old rows' mean norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .data import LabeledDataset
from .errors import ConfigError, ConflictError, DegenerateHeadError, EmptyInputError, ShapeError
from .model import DISTILL_LOSSES, IncModel, train_epochs

WA_NORMS = ("l1", "l2")

ALPHA_BASE = 0.1  # mixing schedule: alpha = 0.1 * u / (u + v)


@dataclass(frozen=True)
class CcsSettings:
    """Which components a stage update uses, and how; the same at every stage.

    ``alpha_override`` of None means the default schedule 0.1 * u / (u + v);
    an explicit value overrides it.
    """

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

    def mixing_alpha(self, u: int, v: int) -> float:
        """Distillation weight for a stage adding v classes to u old ones."""
        if self.alpha_override is not None:
            return self.alpha_override
        return ALPHA_BASE * u / (u + v)


def _normalized_embeddings(model: IncModel, samples: np.ndarray) -> np.ndarray:
    """L2-normalized embeddings of one class's samples; a zero embedding stays zero."""
    _, embeddings = model.forward_batch(samples)
    if embeddings.shape[0] == 0:
        raise EmptyInputError("class has no samples")
    norms = np.sqrt((embeddings**2).sum(axis=1, keepdims=True))
    return embeddings / np.where(norms > 0, norms, 1.0)


def herding_select(model: IncModel, samples: np.ndarray, k: int) -> list[int]:
    """Indices of the k samples nearest (Euclidean) to the class feature center.

    Distances are measured between L2-normalized embeddings and the center;
    ties break toward the lower index. Returns min(k, n) indices ordered by
    distance, then index.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    normalized = _normalized_embeddings(model, samples)
    center = normalized.mean(axis=0)
    distances = np.sqrt(((normalized - center) ** 2).sum(axis=1))
    order = np.argsort(distances, kind="stable")
    return [int(i) for i in order[:k]]


def build_exemplar_store(
    model: IncModel,
    dataset: LabeledDataset,
    k: int,
    existing: dict[int, np.ndarray] | None = None,
) -> dict[int, np.ndarray]:
    """Herding-select k exemplars per new class; prior classes stay frozen.

    A store maps each (remapped) class id, in insertion order, to its
    min(k, available) rows, read-only once selected. Returns a new store;
    ``existing`` is never mutated and its rows are never re-selected.
    """
    store = dict(existing or {})
    overlap = set(dataset.class_ids) & set(store)
    if overlap:
        raise ConflictError(f"classes {sorted(overlap)} already have exemplars")
    for c in dataset.class_ids:
        rows = dataset.class_rows(c)
        if rows.shape[0] == 0:
            continue
        chosen = rows[herding_select(model, rows, k)]
        chosen.setflags(write=False)
        store[c] = chosen
    return store


def weight_align(head: np.ndarray, u: int, v: int, norm: str = "l2") -> np.ndarray:
    """Rescale the v new head rows so mean new-row norm matches the old rows'.

    gamma = Mean(||w_1||..||w_u||) / Mean(||w_{u+1}||..||w_{u+v}||); rows
    1..u are returned bit-identical.
    """
    head = numkit.as_matrix(head, "head")
    if u < 1 or v < 1:
        raise ValueError(f"need u >= 1 and v >= 1, got u={u}, v={v}")
    if head.shape[0] != u + v:
        raise ShapeError(f"head has {head.shape[0]} rows, expected u + v = {u + v}")
    if norm not in WA_NORMS:
        raise ValueError(f"unknown norm {norm!r}")

    if norm == "l1":
        row_norms = np.abs(head).sum(axis=1)
    else:
        row_norms = np.sqrt((head**2).sum(axis=1))
    mean_new = row_norms[u:].mean()
    if mean_new == 0.0:
        raise DegenerateHeadError("every new head row is zero; aligning factor undefined")
    gamma = row_norms[:u].mean() / mean_new

    aligned = head.copy()
    aligned[u:] *= gamma
    return aligned


def ccs_stage_update(
    prev: IncModel,
    new_data: LabeledDataset,
    store: dict[int, np.ndarray],
    settings: CcsSettings,
    rng: np.random.Generator,
) -> tuple[IncModel, dict[int, np.ndarray], list[float]]:
    """One incremental stage: expand, train with replay + distillation, align.

    The u old classes are the previous model's; the v new ones are
    ``new_data.class_ids``, already remapped to u..u+v-1. A new class without
    training rows still gets a head row, but no exemplars. The rng is consumed
    in a fixed order (head expansion draws, then one shuffle per epoch)
    regardless of the toggles, so seed-matched runs differing only in toggles
    see identical batches. Training uses ``prev.config``'s epochs, batch size
    and learning rate.

    Returns (updated model, extended store, per-epoch losses). Exemplars for
    the new classes are selected with the updated model and frozen thereafter.
    """
    if new_data.n_samples == 0:
        raise ValueError("new_data is empty")
    u, v = prev.num_classes, len(new_data.class_ids)
    new_ids = set(new_data.class_ids)
    seen = set(range(u)) | set(store)
    overlap = new_ids & seen
    if overlap:
        raise ConflictError(f"new class ids {sorted(overlap)} were already seen")
    expected = set(range(u, u + v))
    if new_ids != expected:
        raise ValueError(
            f"new_data class ids must be contiguous after the old classes "
            f"({sorted(expected)}), got {sorted(new_ids)}"
        )

    student = prev.copy()
    student.expand_head(v, rng)

    alpha = settings.mixing_alpha(u, v) if settings.use_distillation else 0.0
    teacher = prev.snapshot() if (settings.use_distillation and alpha > 0) else None

    if settings.use_exemplars and store:
        # the pool: new rows, then every class's exemplars in insertion order
        features = np.vstack([new_data.features, *store.values()])
        ex_labels = [np.full(len(rows), c, dtype=np.int64) for c, rows in store.items()]
        labels = np.concatenate([new_data.labels, *ex_labels])
    else:
        features = new_data.features
        labels = new_data.labels

    losses = train_epochs(
        student, features, labels, rng, teacher=teacher, alpha=alpha, distill_loss=settings.distill_loss
    )

    if settings.use_weight_align:
        student.head = weight_align(student.head, u, v, settings.wa_norm)

    new_store = build_exemplar_store(student, new_data, settings.k, existing=store)
    return student, new_store, losses
