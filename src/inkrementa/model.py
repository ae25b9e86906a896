"""Feed-forward classifier with an expandable, bias-free prediction head.

The network is a stack of ReLU hidden layers followed by a linear head whose
row ``j`` is the weight vector of class ``j``. The head carries no bias so
that per-class row norms fully determine class logit scale, which is what
head weight aligning manipulates. Backpropagation and SGD are hand-written
over numpy; the gradient test suite checks every loss configuration against
central finite differences. ``train_epochs`` checks a training call once, and
its SGD steps (``IncModel.backward_and_step``) check nothing.

A step computes the gradient and the update, and no loss value: it records
the batch's pre-step logits and the row max and row sum of their softmax.
``row_losses`` turns such records into per-row losses, and ``train_epochs``
calls it once per epoch, over all of the epoch's rows.

The distillation losses are one table, ``DISTILL_TABLE``: ``name ->
(distance, gradient)``, each a function of ``(s_logits, t_logits)``. The step
uses only the gradient with respect to the student logits, and the epoch's
loss only the per-sample distance. ``DISTILL_LOSSES`` lists its names.

Weight convention: layer matrices have shape (out_dim, in_dim), so a batch
``X`` of shape (n, in_dim) maps to ``X @ W.T + b``.

Parameter storage: an SGD step keeps every parameter in one flat float64
vector, ``weights[k]``, ``biases[k]`` and ``head`` being reshaped views of it,
and writes its gradients into the matching views of one gradient vector, so
that a single subtraction updates every layer. Any attribute may still be
replaced by a new array (``expand_head``, the aligned head of a stage update,
a fresh ``copy``): before it touches the flat vector, a step repacks every
parameter that is not one of its views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import is_not

import numpy as np

from . import numkit
from .errors import ConfigError, DivergenceError, ShapeError


def _mse_distance(s_logits: np.ndarray, t_logits: np.ndarray) -> np.ndarray:
    """Mean squared logit difference over the teacher's classes; overwrites ``t_logits``."""
    diff = np.subtract(s_logits, t_logits, out=t_logits)
    diff *= diff
    return np.add.reduce(diff, axis=1) / diff.shape[1]


def _mse_gradient(s_logits: np.ndarray, t_logits: np.ndarray) -> np.ndarray:
    d = s_logits - t_logits
    d *= 2.0
    d /= d.shape[1]
    return d


def _l1_distance(s_logits: np.ndarray, t_logits: np.ndarray) -> np.ndarray:
    """Mean absolute logit difference over the teacher's classes; overwrites ``t_logits``."""
    diff = np.subtract(s_logits, t_logits, out=t_logits)
    return np.add.reduce(np.abs(diff, out=diff), axis=1) / diff.shape[1]


def _l1_gradient(s_logits: np.ndarray, t_logits: np.ndarray) -> np.ndarray:
    d = s_logits - t_logits
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


def _kld_gradient(s_logits: np.ndarray, t_logits: np.ndarray) -> np.ndarray:
    d = numkit.softmax_rows(s_logits)
    d -= numkit.softmax_rows(t_logits)
    return d


# name -> (distance, gradient). Both take the student's logits restricted to
# the teacher's u classes and the teacher's logits, 2-D float64 arrays of the
# same shape with at least one column, unchecked as the step passes them. The
# distance gives one value per row and may overwrite the teacher's logits;
# the gradient is the distance's with respect to the student's logits.
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


@dataclass
class IncModel:
    """Classifier state: hidden (weight, bias) pairs plus the class head."""

    config: ModelConfig
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)
    head: np.ndarray = field(repr=False)
    # set by `_packed`: the flat parameter and gradient vectors and their
    # views, in the order weights, biases, head
    _flat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _grads: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _views: tuple = field(default=(), init=False, repr=False, compare=False)
    _grad_views: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def init(
        cls, config: ModelConfig, input_dim: int, num_classes: int, rng: np.random.Generator
    ) -> "IncModel":
        """He-uniform weights, zero biases, bias-free head over the last layer."""
        if input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {input_dim}")
        if num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {num_classes}")
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
        OpenBLAS hands a product to its thread pool once M*N*K reaches 2**19
        (a 256-row block at 64x32 already does), and after each such call
        every helper thread busy-waits for about 0.12 s of CPU. A single-call
        pass over a 1,100-row test set therefore cost far more CPU than it
        saved: at these layer widths the threads gain nothing (measured with
        numpy 2.4 and OpenBLAS 0.3.31 on 2 CPUs).
        """
        X = numkit.as_matrix(X, "X")
        if X.shape[1] != self.input_dim:
            raise ShapeError(f"input has dim {X.shape[1]}, model expects {self.input_dim}")
        n, step = X.shape[0], self.config.batch_size
        logits = np.empty((n, self.num_classes))
        # without hidden layers the embedding is the input itself
        embeddings = np.empty((n, self.embed_dim)) if self.weights else X.copy()
        for start in range(0, n, step):
            block = slice(start, start + step)
            self._forward_cached(X[block], logits[block], embeddings[block])
        return logits, embeddings

    def _forward_cached(self, X: np.ndarray, logits: np.ndarray, embeddings: np.ndarray | None = None):
        """Pass over an already-checked matrix; returns the activations.

        The logits are written into ``logits``, and the last hidden layer's
        activations into ``embeddings`` when it is given. The bias and the
        ReLU are applied in place. A unit's activation is positive exactly
        when its pre-activation is, so backprop takes its ReLU mask from the
        activations.
        """
        acts = [X]
        a = X
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = np.dot(a, w.T, out=embeddings if k == last else None)
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

    def _packed(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat (parameter, gradient) vectors, repacked first if needed.

        Any parameter array that is not the view packed last (a replaced
        head, a directly built or copied model) is copied, together with
        all the others, into new flat vectors, and the attributes become
        views of them.
        """
        params = (*self.weights, *self.biases, self.head)
        if len(params) != len(self._views) or any(map(is_not, params, self._views)):
            total = sum(p.size for p in params)
            self._flat, self._grads = np.empty(total), np.empty(total)
            views, grad_views, start = [], [], 0
            for p in params:
                stop = start + p.size
                views.append(self._flat[start:stop].reshape(p.shape))
                views[-1][...] = p
                grad_views.append(self._grads[start:stop].reshape(p.shape))
                start = stop
            self._views, self._grad_views = tuple(views), tuple(grad_views)
            layers = len(self.weights)
            self.weights, self.biases, self.head = views[:layers], views[layers:-1], views[-1]
        return self._flat, self._grads

    def __getstate__(self) -> dict:
        # pickling or deep-copying detaches the views from the flat vector,
        # so the copy drops the packing and its next step repacks
        return {**self.__dict__, "_flat": None, "_grads": None, "_views": (), "_grad_views": ()}

    # -- training ------------------------------------------------------------

    def backward_and_step(
        self,
        X: np.ndarray,
        y: np.ndarray,
        t_logits: np.ndarray | None = None,
        alpha: float = 0.0,
        distill_loss: str = "mse",
        out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One SGD step on the mean batch loss; returns the pre-step record.

        Loss per sample is (1 - alpha) * cross-entropy against the label plus
        alpha * distillation distance between the student's logits restricted
        to the teacher's ``u = t_logits.shape[1]`` classes and the teacher's
        logits ``t_logits`` for the same rows (MSE/L1 on logits, KLD on their
        softmax at temperature 1). An empty batch raises ``EmptyInputError``.

        The step computes the gradient and the update, and no loss value. The
        record it returns, ``(logits, row_max, row_sum)``, is what the loss
        needs: the batch's pre-step logits, and the row max and row sum of
        their softmax. ``row_losses`` turns it into per-row losses. The step
        writes the record into ``out``, three arrays of shapes
        ``(n, num_classes)``, ``(n,)`` and ``(n,)``, or into new ones.

        The step checks nothing: ``X`` must be a 2-D, finite, C-order float64
        array with ``input_dim`` columns, ``y`` labels in ``[0, num_classes)``,
        ``alpha`` in [0, 1], ``t_logits`` given exactly when ``alpha > 0`` with
        at most ``num_classes`` columns, and ``distill_loss`` a key of
        ``DISTILL_TABLE``; ``train_epochs`` checks that once per call. The
        learning rate is ``config.lr``.
        """
        params, grads = self._packed()
        n = X.shape[0]
        if out is None:
            out = (np.empty((n, self.num_classes)), np.empty(n), np.empty(n))
        logits, row_max, row_sum = out
        acts = self._forward_cached(X, logits)
        grad = numkit.softmax_ce_grad(logits, y, row_max, row_sum)
        grad *= (1.0 - alpha) / n
        if alpha > 0:
            u = t_logits.shape[1]
            d_s = DISTILL_TABLE[distill_loss][1](logits[:, :u], t_logits)
            d_s *= alpha / n
            grad[:, :u] += d_s

        # backprop through the head and hidden stack from the pre-step
        # parameters, each gradient written into its view of `grads`
        layers = len(self.weights)
        d_params = self._grad_views
        np.dot(grad.T, acts[-1], out=d_params[-1])
        d_act = np.dot(grad, self.head)
        for k in range(layers - 1, -1, -1):
            # the ReLU mask: activations are >= 0, so their sign is exactly 1.0 or 0.0
            d_act *= np.sign(acts[k + 1])
            np.dot(d_act.T, acts[k], out=d_params[k])
            np.add.reduce(d_act, axis=0, out=d_params[layers + k])
            if k > 0:  # the input layer's gradient w.r.t. X is never used
                d_act = np.dot(d_act, self.weights[k])
        # p - lr * d for every parameter, as two whole-vector operations
        grads *= self.config.lr
        params -= grads
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
    as the rows. The steps write their records into one set of arrays for
    the whole pool, and after the epoch's last step one ``row_losses`` call
    turns them into per-row losses; each batch's mean loss, weighted by its
    rows and summed in batch order, gives the epoch's mean. A non-finite
    loss on the checked pool means the model itself diverged, which raises
    ``DivergenceError`` naming the epoch.
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

    # one record per call: each step writes its rows, then the epoch's loss reads them all
    record = (np.empty((n, model.num_classes)), np.empty(n), np.empty(n))
    full = n - n % batch_size  # rows in full batches
    epoch_losses = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        X, y = features[order], labels[order]
        T = None if t_pool is None else t_pool[order]
        # overflow and NaN arithmetic in a diverged model is reported once, by the check below
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch_size):
                rows = slice(start, start + batch_size)
                model.backward_and_step(
                    X[rows],
                    y[rows],
                    t_logits=None if T is None else T[rows],
                    alpha=alpha,
                    distill_loss=distill_loss,
                    out=(record[0][rows], record[1][rows], record[2][rows]),
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
    return epoch_losses
