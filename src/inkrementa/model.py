"""Feed-forward classifier with an expandable, bias-free prediction head.

The network is a stack of ReLU hidden layers followed by a linear head whose
row ``j`` is the weight vector of class ``j``. The head carries no bias so
that per-class row norms fully determine class logit scale, which is what
head weight aligning manipulates. Backpropagation and SGD are hand-written
over numpy; the gradient test suite checks every loss configuration against
central finite differences. ``train_epochs`` checks a training call once, and
its SGD steps (``IncModel.backward_and_step``) check nothing.

A step computes the gradient and the update, and no loss value: it records
the batch's pre-step logits and the row max and row sum of their softmax,
which ``numkit.softmax_rows`` writes as it starts the cross-entropy gradient.
``row_losses`` turns such records into per-row losses, and ``train_epochs``
calls it once per epoch, over all of the epoch's rows.

A ``train_epochs`` call allocates what its steps write once, sized from the
model as it stands at the call: the record, the epoch's gathered rows, and a
``StepScratch`` that packs the parameters and holds the work arrays
(activations, ReLU masks, backprop buffers, the logit and distillation
gradients), whose short last batch uses row slices of the full batch's
arrays. A step called without a scratch builds its own, so both run one
code path.

The distillation losses are one table, ``DISTILL_TABLE``: ``name ->
(distance, gradient)``, each a function of ``(s_logits, t_logits)``. The step
uses only the gradient with respect to the student logits, and the epoch's
loss only the per-sample distance. ``DISTILL_LOSSES`` lists its names.

Weight convention: layer matrices have shape (out_dim, in_dim), so a batch
``X`` of shape (n, in_dim) maps to ``X @ W.T + b``.

Parameter storage: a ``StepScratch`` packs the model, copying every
parameter into one flat float64 vector and making ``weights[k]``, ``biases[k]``
and ``head`` reshaped views of it; its steps write their gradients into the
matching views of one gradient vector, so that a single subtraction updates
every layer. The model keeps no packing state: any attribute may be replaced
by a new array (``expand_head``, the aligned head of a stage update, a
``copy``), and the next scratch packs it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .errors import ConfigError, DivergenceError, ShapeError


def _mse_distance(s_logits: np.ndarray, t_logits: np.ndarray) -> np.ndarray:
    """Mean squared logit difference over the teacher's classes; overwrites ``t_logits``."""
    diff = np.subtract(s_logits, t_logits, out=t_logits)
    diff *= diff
    return np.add.reduce(diff, axis=1) / diff.shape[1]


def _mse_gradient(s_logits: np.ndarray, t_logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    d = np.subtract(s_logits, t_logits, out=out)
    d *= 2.0
    d /= d.shape[1]
    return d


def _l1_distance(s_logits: np.ndarray, t_logits: np.ndarray) -> np.ndarray:
    """Mean absolute logit difference over the teacher's classes; overwrites ``t_logits``."""
    diff = np.subtract(s_logits, t_logits, out=t_logits)
    return np.add.reduce(np.abs(diff, out=diff), axis=1) / diff.shape[1]


def _l1_gradient(s_logits: np.ndarray, t_logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    d = np.subtract(s_logits, t_logits, out=out)
    np.sign(d, out=d)
    d /= d.shape[1]
    return d


def _kld_distance(s_logits: np.ndarray, t_logits: np.ndarray) -> np.ndarray:
    """KL(teacher || student) of the softmaxes at temperature 1; overwrites ``t_logits``."""
    q = numkit.softmax_rows(s_logits)
    np.maximum(q, numkit.KL_FLOOR, out=q)
    t_prob = numkit.softmax_rows(t_logits, out=t_logits)
    # t_prob * log(max(t_prob, floor) / q) where t_prob > 0, else 0, in place
    terms = np.maximum(t_prob, numkit.KL_FLOOR)
    terms /= q
    np.log(terms, out=terms)
    terms *= t_prob
    np.copyto(terms, 0.0, where=~(t_prob > 0))
    return np.add.reduce(terms, axis=1)


def _kld_gradient(s_logits: np.ndarray, t_logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    d = numkit.softmax_rows(s_logits, out=out)
    d -= numkit.softmax_rows(t_logits)
    return d


# name -> (distance, gradient). Both take the student's logits restricted to
# the teacher's u classes and the teacher's logits, 2-D float64 arrays of the
# same shape with at least one column, unchecked as the step passes them. The
# distance gives one value per row and may overwrite the teacher's logits;
# the gradient is the distance's with respect to the student's logits, written
# into its ``out=`` array of that shape or into a new one.
DISTILL_TABLE = {
    "mse": (_mse_distance, _mse_gradient),
    "kld": (_kld_distance, _kld_gradient),
    "l1": (_l1_distance, _l1_gradient),
}
DISTILL_LOSSES = tuple(DISTILL_TABLE)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and SGD settings. Activation is ReLU, init He-uniform.

    The input width is not a setting: it comes from the data at
    ``IncModel.init`` and from the weights afterwards.
    """

    hidden_dims: tuple[int, ...] = (64, 32)
    lr: float = 0.1
    batch_size: int = 32
    epochs_per_stage: int = 30

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"hidden dims must all be >= 1, got {self.hidden_dims}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs_per_stage < 1:
            raise ConfigError(f"epochs_per_stage must be >= 1, got {self.epochs_per_stage}")


def _he_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    bound = np.sqrt(6.0 / in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


class StepScratch:
    """The packed parameters and the work arrays of SGD steps on batches of one row count.

    ``params`` is the model's flat parameter vector and ``grads`` its
    gradient vector, with ``grad_views`` shaped as the weights, biases and
    head. Then per hidden layer an activation, a ReLU mask and a backprop
    buffer (with its transpose); the logit gradient with its view of the
    teacher's ``u`` columns and its transpose; the ``u``-column distillation
    gradient; and the row index ``np.arange(rows)``. A step overwrites all
    but ``params``, which it updates. The scratch serves its model until a
    parameter array is replaced.
    """

    __slots__ = (
        "params", "grads", "grad_views",
        "hidden", "masks", "backs", "backs_T", "grad", "grad_u", "grad_T", "d_s", "index",
    )

    def __init__(self, params, grads, grad_views, hidden, masks, backs, grad, d_s, index):
        self.params, self.grads, self.grad_views = params, grads, grad_views
        self.hidden, self.masks, self.backs = hidden, masks, backs
        self.grad, self.d_s, self.index = grad, d_s, index
        # the views a step reads, built once
        self.backs_T = [b.T for b in backs]
        self.grad_u, self.grad_T = grad[:, : d_s.shape[1]], grad.T

    @classmethod
    def new(cls, model: "IncModel", rows: int, u: int) -> "StepScratch":
        """Pack ``model`` and allocate for ``rows``-row steps with a ``u``-class teacher.

        Every parameter is copied, in the order weights, biases, head, into
        one new flat vector, and the model's attributes become reshaped views
        of it.
        """
        arrays = (*model.weights, *model.biases, model.head)
        total = sum(p.size for p in arrays)
        params, grads = np.empty(total), np.empty(total)
        views, grad_views, start = [], [], 0
        for p in arrays:
            stop = start + p.size
            views.append(params[start:stop].reshape(p.shape))
            views[-1][...] = p
            grad_views.append(grads[start:stop].reshape(p.shape))
            start = stop
        layers = len(model.weights)
        model.weights, model.biases, model.head = views[:layers], views[layers:-1], views[-1]
        widths = [w.shape[0] for w in model.weights]
        return cls(
            params, grads, grad_views,
            *([np.empty((rows, h)) for h in widths] for _ in range(3)),
            np.empty((rows, model.num_classes)),
            np.empty((rows, u)),
            np.arange(rows),
        )

    def first_rows(self, rows: int) -> "StepScratch":
        """The same parameters and the same work arrays' first ``rows`` rows, for a shorter batch."""
        return StepScratch(
            self.params, self.grads, self.grad_views,
            *([a[:rows] for a in arrays] for arrays in (self.hidden, self.masks, self.backs)),
            self.grad[:rows],
            self.d_s[:rows],
            self.index[:rows],
        )


@dataclass
class IncModel:
    """Classifier state: hidden (weight, bias) pairs plus the class head."""

    config: ModelConfig
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)
    head: np.ndarray = field(repr=False)

    @classmethod
    def init(
        cls, config: ModelConfig, input_dim: int, num_classes: int, rng: np.random.Generator
    ) -> "IncModel":
        """He-uniform weights, zero biases, bias-free head; both sizes must be >= 1."""
        weights, biases = [], []
        in_dim = input_dim
        for h in config.hidden_dims:
            weights.append(_he_uniform(rng, h, in_dim))
            biases.append(np.zeros(h))
            in_dim = h
        head = _he_uniform(rng, num_classes, in_dim)
        return cls(config=config, weights=weights, biases=biases, head=head)

    @property
    def input_dim(self) -> int:
        return (self.weights[0] if self.weights else self.head).shape[1]

    @property
    def num_classes(self) -> int:
        return self.head.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.head.shape[1]

    def copy(self) -> "IncModel":
        return IncModel(
            config=self.config,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            head=self.head.copy(),
        )

    # -- inference ---------------------------------------------------------

    def forward_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Batched pass; returns (logits (n, C), embeddings (n, E)).

        Rows go through the network in blocks of ``config.batch_size``, so
        inference never issues a larger matrix product than an SGD step does.
        The row count of a product selects OpenBLAS's code path, so the block
        size is part of the report bytes: a whole-matrix pass over 1,100 or
        5,500 rows differs from the 32-row blocks by up to 1.4e-14 (numpy 2.4
        with OpenBLAS 0.3.31). OpenBLAS's threads are the package's thread
        policy (see ``inkrementa``), not this method's concern.
        """
        X = numkit.as_matrix(X, "X")
        if X.shape[1] != self.input_dim:
            raise ShapeError(f"input has dim {X.shape[1]}, model expects {self.input_dim}")
        n, step = X.shape[0], self.config.batch_size
        logits = np.empty((n, self.num_classes))
        # without hidden layers the embedding is the input itself
        embeddings = np.empty((n, self.embed_dim)) if self.weights else X.copy()
        # the last hidden layer writes into the embeddings, the others into new arrays
        hidden = [None] * len(self.weights)
        for start in range(0, n, step):
            block = slice(start, start + step)
            if hidden:
                hidden[-1] = embeddings[block]
            self._forward_cached(X[block], logits[block], hidden)
        return logits, embeddings

    def _forward_cached(self, X: np.ndarray, logits: np.ndarray, hidden: list) -> list[np.ndarray]:
        """Pass over an already-checked matrix; returns the activations.

        The logits are written into ``logits``, and hidden layer ``k``'s
        activations into ``hidden[k]``, or into a new array where that is
        ``None``. The bias and the ReLU are applied in place. A unit's
        activation is positive exactly when its pre-activation is, so
        backprop takes its ReLU mask from the activations.
        """
        acts = [X]
        a = X
        for w, b, out in zip(self.weights, self.biases, hidden):
            a = np.dot(a, w.T, out=out)
            a += b
            np.maximum(a, 0.0, out=a)
            acts.append(a)
        np.dot(a, self.head.T, out=logits)
        return acts

    # -- structural updates --------------------------------------------------

    def expand_head(self, v: int, rng: np.random.Generator) -> None:
        """Grow the head by ``v`` He-uniform rows; existing rows are untouched."""
        new_rows = _he_uniform(rng, v, self.embed_dim)
        self.head = np.vstack([self.head, new_rows])

    def snapshot(self) -> "TeacherSnapshot":
        return TeacherSnapshot(self)

    # -- training ------------------------------------------------------------

    def backward_and_step(
        self,
        X: np.ndarray,
        y: np.ndarray,
        t_logits: np.ndarray | None = None,
        alpha: float = 0.0,
        distill_loss: str = "mse",
        out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        scratch: StepScratch | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One SGD step on the mean batch loss; returns the pre-step record.

        Loss per sample is (1 - alpha) * cross-entropy against the label plus
        alpha * distillation distance between the student's logits restricted
        to the teacher's ``u = t_logits.shape[1]`` classes and the teacher's
        logits ``t_logits`` for the same rows (MSE/L1 on logits, KLD on their
        softmax at temperature 1).

        The step computes the gradient and the update, and no loss value. The
        record it returns, ``(logits, row_max, row_sum)``, is what the loss
        needs: the batch's pre-step logits, and the row max and row sum of
        their softmax, which ``numkit.softmax_rows`` writes as it starts the
        cross-entropy gradient (the softmax minus the one-hot labels).
        ``row_losses`` turns it into per-row losses. The step writes the record
        into ``out``, three arrays of shapes ``(n, num_classes)``, ``(n,)`` and
        ``(n,)``, or into new ones. Its parameters and work arrays are
        ``scratch``, a ``StepScratch`` that packed this model with no parameter
        array replaced since, for ``n`` rows and the teacher's ``u`` (0 without
        one), or a new one, which packs the model first.

        The step checks nothing: ``X`` must be a non-empty, 2-D, finite,
        C-order float64 array with ``input_dim`` columns, ``y`` one label per
        row in ``[0, num_classes)``, ``alpha`` in [0, 1], ``t_logits`` given
        exactly when ``alpha > 0`` with at most ``num_classes`` columns, and
        ``distill_loss`` a key of ``DISTILL_TABLE``; ``train_epochs`` checks
        that once per call (a label past the last class still raises
        ``IndexError``). The learning rate is ``config.lr``.
        """
        n = X.shape[0]
        if out is None:
            out = (np.empty((n, self.num_classes)), np.empty(n), np.empty(n))
        if scratch is None:
            scratch = StepScratch.new(self, n, 0 if t_logits is None else t_logits.shape[1])
        logits, row_max, row_sum = out
        acts = self._forward_cached(X, logits, scratch.hidden)
        # the cross-entropy gradient, softmax(logits) - onehot(y)
        grad = numkit.softmax_rows(logits, scratch.grad, row_max, row_sum)
        # one (row, label) pair per row, bounds-checked like the 2-D index
        # ``grad[rows, labels] -= 1.0`` but without its gather and scatter
        np.subtract.at(grad, (scratch.index, y), 1.0)
        grad *= (1.0 - alpha) / n
        if alpha > 0:
            d_s = DISTILL_TABLE[distill_loss][1](logits[:, : t_logits.shape[1]], t_logits, out=scratch.d_s)
            d_s *= alpha / n
            scratch.grad_u += d_s

        # backprop through the head and hidden stack from the pre-step
        # parameters, each gradient written into its view of `scratch.grads`
        layers = len(self.weights)
        d_params = scratch.grad_views
        np.dot(scratch.grad_T, acts[-1], out=d_params[-1])
        upstream, weight = grad, self.head
        for k in range(layers - 1, -1, -1):
            d_act = np.dot(upstream, weight, out=scratch.backs[k])
            # the ReLU mask: activations are >= 0, so their sign is exactly 1.0 or 0.0
            d_act *= np.sign(acts[k + 1], out=scratch.masks[k])
            np.dot(scratch.backs_T[k], acts[k], out=d_params[k])
            np.add.reduce(d_act, axis=0, out=d_params[layers + k])
            # the input layer's gradient w.r.t. X is never computed
            upstream, weight = d_act, self.weights[k]
        # p - lr * d for every parameter, as two whole-vector operations
        scratch.grads *= self.config.lr
        scratch.params -= scratch.grads
        return out


def row_losses(
    record: tuple[np.ndarray, np.ndarray, np.ndarray],
    y: np.ndarray,
    t_logits: np.ndarray | None = None,
    alpha: float = 0.0,
    distill_loss: str = "mse",
) -> np.ndarray:
    """Per-row pre-step losses from a step's record, the labels and the teacher logits.

    ``record`` is ``(logits, row_max, row_sum)`` as ``backward_and_step``
    returns it. The loss is the step's: cross-entropy
    ``log(row_sum) - (logit_y - row_max)``, mixed as ``(1 - alpha) * ce +
    alpha * d`` with the distillation distance ``d`` between ``logits[:, :u]``
    and the teacher's ``u``-column ``t_logits`` when ``alpha > 0``. The
    distance may overwrite ``t_logits``. Unchecked, like the step.
    """
    logits, row_max, row_sum = record
    ce = numkit.cross_entropy_rows(logits, y, row_max, row_sum)
    if alpha == 0:
        return ce
    distance = DISTILL_TABLE[distill_loss][0](logits[:, : t_logits.shape[1]], t_logits)
    return (1.0 - alpha) * ce + alpha * distance


class TeacherSnapshot:
    """Deep, read-only copy of a model; outputs never change over its lifetime."""

    def __init__(self, model: IncModel):
        self._model = model.copy()
        for arr in (*self._model.weights, *self._model.biases, self._model.head):
            arr.setflags(write=False)

    @property
    def num_classes(self) -> int:
        return self._model.num_classes

    def forward_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        return self._model.forward_batch(X)


def train_epochs(
    model: IncModel,
    features: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    *,
    teacher: TeacherSnapshot | None = None,
    alpha: float = 0.0,
    distill_loss: str = "mse",
) -> list[float]:
    """Shuffled mini-batch SGD; returns per-epoch mean pre-step losses.

    Epoch count, batch size and learning rate are the model's ``config``.
    The only randomness is one ``rng.permutation`` per epoch, which keeps the
    draw sequence identical across loss configurations for the same seed.

    This is the boundary of the training loop: the pool's features and
    labels and the loss settings are checked here, once, before the first
    random draw and the teacher pass, and the steps trust them. The frozen
    teacher's logits never change within a call, so the teacher runs once
    over the pool and each epoch gathers its logits with the same ``order``
    as the rows, into arrays allocated once per call. The steps write their
    records into one set of arrays for the whole pool, and their work into
    one ``StepScratch``, which packs the model once for the call; after the
    epoch's last step one ``row_losses`` call turns the records into per-row
    losses; each batch's mean loss, weighted by its rows and summed in batch
    order, gives the epoch's mean. A non-finite loss on the checked pool
    means the model itself diverged, which raises ``DivergenceError`` naming
    the epoch. No pre-step loss shows the last step, so the trained model
    then runs once more over the pool, and a non-finite logit means the last
    epoch diverged.
    """
    cfg = model.config
    epochs, batch_size = cfg.epochs_per_stage, cfg.batch_size
    features = numkit.as_matrix(features, "features")
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if features.shape[1] != model.input_dim:
        raise ShapeError(f"features have dim {features.shape[1]}, model expects {model.input_dim}")
    if labels.shape != (n,):
        raise ShapeError(f"labels have shape {labels.shape}, expected ({n},)")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise IndexError(
            f"labels must lie in [0, {model.num_classes}), got range [{labels.min()}, {labels.max()}]"
        )
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if (teacher is None) != (alpha == 0):
        raise ValueError(f"teacher logits must be given exactly when alpha > 0, got alpha={alpha}")
    if distill_loss not in DISTILL_TABLE:
        raise ValueError(f"unknown distill_loss {distill_loss!r}, expected one of {DISTILL_LOSSES}")
    if teacher is not None and teacher.num_classes > model.num_classes:
        raise ShapeError(f"teacher has {teacher.num_classes} classes but student only {model.num_classes}")
    t_pool = None if teacher is None else teacher.forward_batch(features)[0]

    # Everything the steps write is allocated once per call: the record, which
    # each step writes its rows of and the epoch's loss reads whole; the
    # epoch's gathered rows, labels and teacher logits (the loss may overwrite
    # the last, so they are never the caller's arrays); and the steps' scratch,
    # which packs the model and whose tail-batch arrays are row slices of the
    # full batch's.
    record = (np.empty((n, model.num_classes)), np.empty(n), np.empty(n))
    X, y = np.empty_like(features), np.empty_like(labels)
    T = None if t_pool is None else np.empty_like(t_pool)
    full = n - n % batch_size  # rows in full batches
    scratch = StepScratch.new(model, min(n, batch_size), 0 if T is None else T.shape[1])
    tail = scratch.first_rows(n - full)  # for the short last batch, if there is one
    batches = [
        (
            rows,
            X[rows],
            y[rows],
            None if T is None else T[rows],
            (record[0][rows], record[1][rows], record[2][rows]),
            scratch if rows.start < full else tail,
        )
        for rows in (slice(start, start + batch_size) for start in range(0, n, batch_size))
    ]
    epoch_losses = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        # "clip" never clips a permutation, and unlike "raise" it gathers
        # straight into `out=` instead of through a temporary copy
        np.take(features, order, axis=0, out=X, mode="clip")
        np.take(labels, order, out=y, mode="clip")
        if T is not None:
            np.take(t_pool, order, axis=0, out=T, mode="clip")
        # overflow and NaN arithmetic in a diverged model is reported once, by the check below
        with np.errstate(over="ignore", invalid="ignore"):
            for _, X_rows, y_rows, T_rows, out, batch_scratch in batches:
                model.backward_and_step(
                    X_rows,
                    y_rows,
                    t_logits=T_rows,
                    alpha=alpha,
                    distill_loss=distill_loss,
                    out=out,
                    scratch=batch_scratch,
                )
            losses = row_losses(record, y, T, alpha, distill_loss)
            # each batch's mean weighted by its rows and summed in batch order:
            # bit for bit the sum of per-step mean losses
            total = 0.0
            for mean in (np.add.reduce(losses[:full].reshape(-1, batch_size), axis=1) / batch_size).tolist():
                total += mean * batch_size
            if full < n:
                total += float(np.add.reduce(losses[full:]) / (n - full)) * (n - full)
        if not math.isfinite(total):
            raise DivergenceError(f"training diverged in epoch {epoch} of {epochs}: the epoch loss is {total}")
        epoch_losses.append(total / n)
    # the check pass: batch-sized blocks, as in forward_batch, into the record's logits
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, _, _, _, out, batch_scratch in batches:
            model._forward_cached(features[rows], out[0], batch_scratch.hidden)
    if not np.isfinite(record[0]).all():
        raise DivergenceError(f"training diverged in epoch {epochs} of {epochs}: its last step left non-finite logits")
    return epoch_losses
