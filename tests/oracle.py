"""Reference implementations that only the tests use.

The vector helpers are plain, one-sample definitions of the softmax and the
losses; the tests compare the batched code in ``inkrementa`` against them.
``reference_step`` and ``reference_train_epochs`` are frozen copies of the
straightforward SGD step and epoch loop (a row softmax plus a separate
log-sum-exp, an ``if``/``elif`` chain of distillation losses, ``np.mean``, and
one gather per batch, from a teacher pass made once per pool). The library's
step must stay bit-identical to them.
"""

from __future__ import annotations

import numpy as np

from inkrementa.errors import ShapeError
from inkrementa.numkit import KL_FLOOR


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got {v.ndim}-D")
    return v


def softmax(logits) -> np.ndarray:
    """Probability vector from logits, computed with max-subtraction."""
    z = as_vector(logits, "logits")
    if z.size == 0:
        raise ValueError("softmax of an empty vector")
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def cross_entropy(logits, label: int) -> float:
    """Negative log softmax probability of ``label``."""
    z = as_vector(logits, "logits")
    if not 0 <= label < z.size:
        raise IndexError(f"label {label} out of range for {z.size} logits")
    shifted = z - z.max()
    log_norm = np.log(np.exp(shifted).sum())
    return float(log_norm - shifted[label])


def mse(a, b) -> float:
    """Mean squared difference of two equal-length vectors."""
    a, b = as_vector(a, "a"), as_vector(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def l1_loss(a, b) -> float:
    """Mean absolute difference of two equal-length vectors."""
    a, b = as_vector(a, "a"), as_vector(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))


def kl_divergence(p, q) -> float:
    """KL divergence sum(p * ln(p/q)); q is floored at 1e-12.

    Terms with p == 0 contribute zero.
    """
    p, q = as_vector(p, "p"), as_vector(q, "q")
    if p.shape != q.shape:
        raise ShapeError(f"length mismatch: {p.shape} vs {q.shape}")
    q = np.maximum(q, KL_FLOOR)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


# -- frozen SGD step -------------------------------------------------------------


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(model, X: np.ndarray):
    acts = [X]
    pres = []
    a = X
    for w, b in zip(model.weights, model.biases):
        z = a @ w.T + b
        a = np.maximum(z, 0.0)
        pres.append(z)
        acts.append(a)
    return acts[-1] @ model.head.T, pres, acts


def reference_distill(distill_loss: str, s_logits: np.ndarray, t_logits: np.ndarray):
    """Per-sample distillation distance and its gradient w.r.t. ``s_logits``."""
    u = t_logits.shape[1]
    if distill_loss == "mse":
        diff = s_logits - t_logits
        distill = np.mean(diff**2, axis=1)
        d_s = 2.0 * diff / u
    elif distill_loss == "l1":
        diff = s_logits - t_logits
        distill = np.mean(np.abs(diff), axis=1)
        d_s = np.sign(diff) / u
    else:  # kld on softmax, temperature 1
        s_prob = _softmax_rows(s_logits)
        t_prob = _softmax_rows(t_logits)
        q = np.maximum(s_prob, KL_FLOOR)
        distill = np.sum(np.where(t_prob > 0, t_prob * np.log(np.maximum(t_prob, KL_FLOOR) / q), 0.0), axis=1)
        d_s = s_prob - t_prob
    return distill, d_s


def reference_step(model, X, y, t_logits=None, alpha=0.0, distill_loss="mse") -> float:
    """One SGD step on ``model`` in place at ``model.config.lr``; returns the pre-step mean loss."""
    lr = model.config.lr
    X = np.ascontiguousarray(X, dtype=np.float64)
    logits, pres, acts = _forward(model, X)
    n = logits.shape[0]
    y = np.asarray(y, dtype=np.int64)

    probs = _softmax_rows(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    ce = log_norm - shifted[np.arange(n), y]
    grad = probs.copy()
    grad[np.arange(n), y] -= 1.0
    grad *= (1.0 - alpha) / n

    distill = np.zeros(n)
    if alpha > 0:
        u = t_logits.shape[1]
        distill, d_s = reference_distill(distill_loss, logits[:, :u], t_logits)
        grad[:, :u] += (alpha / n) * d_s

    loss = float(np.mean((1.0 - alpha) * ce + alpha * distill))

    d_head = grad.T @ acts[-1]
    d_act = grad @ model.head
    model.head -= lr * d_head
    for k in range(len(model.weights) - 1, -1, -1):
        d_pre = d_act * (pres[k] > 0)
        d_w = d_pre.T @ acts[k]
        d_b = d_pre.sum(axis=0)
        if k > 0:
            d_act = d_pre @ model.weights[k]
        model.weights[k] -= lr * d_w
        model.biases[k] -= lr * d_b
    return loss


def reference_train_epochs(
    model, features, labels, rng, *, teacher=None, alpha=0.0, distill_loss="mse"
) -> list[float]:
    """Shuffled mini-batch SGD gathering ``features[idx]`` for every batch.

    Epoch count and batch size are ``model.config``'s. The teacher runs once
    over the pool; each batch gathers its rows' logits.
    """
    epochs, batch_size = model.config.epochs_per_stage, model.config.batch_size
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    t_pool = None if teacher is None else teacher.forward_batch(features)[0]
    epoch_losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            t_logits = None if t_pool is None else t_pool[idx]
            loss = reference_step(
                model, features[idx], labels[idx], t_logits=t_logits, alpha=alpha, distill_loss=distill_loss
            )
            total += loss * idx.size
        epoch_losses.append(total / n)
    return epoch_losses
