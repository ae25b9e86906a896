"""Continual-learning core: exemplar selection, staged model updates with
teacher-student distillation, and head weight aligning.

Exemplars are the samples nearest to the class mean of L2-normalized
embeddings (``herding_select``). That is not iCaRL's herding, which picks
greedily so that the mean of the chosen set tracks the class mean; the two
agree at ``k = 1``.

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
from .errors import ConfigError, DegenerateHeadError
from .model import DISTILL_LOSSES, IncModel, train_epochs

# name -> the per-row norm of a head matrix, as weight aligning measures it
WA_NORM_TABLE = {
    "l1": lambda head: np.abs(head).sum(axis=1),
    "l2": lambda head: np.sqrt((head**2).sum(axis=1)),
}
WA_NORMS = tuple(WA_NORM_TABLE)

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
    norms = np.sqrt((embeddings**2).sum(axis=1, keepdims=True))
    return embeddings / np.where(norms > 0, norms, 1.0)


def herding_select(model: IncModel, samples: np.ndarray, k: int) -> list[int]:
    """Indices of the k samples nearest to the class mean of L2-normalized embeddings.

    This is nearest-to-mean selection, not iCaRL's greedy herding (which
    picks each next sample so that the chosen set's mean tracks the class
    mean); the name is historical. Distances are Euclidean, between each
    L2-normalized embedding and the mean of the class's normalized
    embeddings; ties break toward the lower index. Returns min(k, n)
    indices ordered by distance, then index. Expects ``k >= 1``
    (``CcsSettings`` checks it) and a sample (``build_exemplar_store`` skips
    a class without rows).
    """
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
    """Select k exemplars per new class (``herding_select``); prior classes stay frozen.

    A store maps each (remapped) class id, in insertion order, to its
    min(k, available) rows, read-only once selected. Returns a new store;
    ``existing`` is never mutated and its rows are never re-selected. Expects
    ids new to ``existing``: ``split_stages`` remaps each stage's ids above
    every earlier stage's.
    """
    store = dict(existing or {})
    for c in dataset.class_ids:
        rows = dataset.class_rows(c)
        if rows.shape[0] == 0:
            continue
        chosen = rows[herding_select(model, rows, k)]
        chosen.setflags(write=False)
        store[c] = chosen
    return store


def weight_align(head: np.ndarray, u: int, norm: str = "l2") -> np.ndarray:
    """Rescale the new head rows (after the first u) so their mean norm matches the old rows'.

    gamma = Mean(||w_1||..||w_u||) / Mean(||w_{u+1}||..||w_{u+v}||); rows
    1..u are returned bit-identical. Expects ``u >= 1`` and a new row
    (``StagePlan`` groups are non-empty) and a ``WA_NORMS`` name (``CcsSettings``
    checks ``wa_norm``; another raises ``KeyError``). ``train_epochs`` already
    fails on a trained head that is not finite; the head is checked here too,
    and the benchmark tracer pins that ``as_matrix`` call.
    """
    head = numkit.as_matrix(head, "head")
    row_norms = WA_NORM_TABLE[norm](head)
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
    ``prev`` and ``store`` are only read. ``split_stages`` guarantees what
    this expects: a train row (``PlanError`` otherwise) and ``class_ids``
    that are the next remapped ids, u..u+v-1, none yet in model or store.
    """
    u, v = prev.num_classes, len(new_data.class_ids)
    student = prev.copy()
    student.expand_head(v, rng)

    alpha = settings.mixing_alpha(u, v) if settings.use_distillation else 0.0
    teacher = prev.snapshot() if alpha > 0 else None

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
        student.head = weight_align(student.head, u, settings.wa_norm)

    new_store = build_exemplar_store(student, new_data, settings.k, existing=store)
    return student, new_store, losses
