"""Dense float64 validation, seeded RNG, and the softmax/cross-entropy kernels.

Matrices are plain 2-D ``numpy.ndarray`` objects in float64, C (row-major)
order; vectors are 1-D float64 arrays. Everything here is a pure function of
its inputs, so values can be shared freely across threads for reading.

Randomness comes from numpy's Philox bit generator, a counter-based PRNG
whose output stream for a given seed is identical across platforms and numpy
releases. A generator instance is single-owner: never share one mutably.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInputError, NonFiniteError, ShapeError

KL_FLOOR = 1e-12


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Create a deterministic generator for ``seed``.

    Distinct ``stream`` values give statistically independent sequences for
    the same seed (used to keep data synthesis and training draws separate).
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 row-major array, validating finiteness."""
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {m.ndim}-D")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D float64 array with at least one column.

    Inputs are not checked: callers check theirs once upstream (the KLD
    distillation loss inside an SGD step). Non-finite logits give non-finite
    probabilities.
    """
    shifted = z - np.maximum.reduce(z, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross-entropy of 2-D ``logits`` against integer ``labels``.

    Returns ``(ce, grad)``: ``ce[i]`` is the negative log softmax probability
    of ``labels[i]``, and ``grad`` is the gradient of ``ce`` with respect to
    the logits, ``softmax(logits) - onehot(labels)``. One row max, one ``exp``
    and one row sum serve both; the gradient is written over the
    probabilities in place.

    This is the SGD step's kernel, so it checks only what is free: the batch
    is not empty and there is one label per row. ``logits`` must be a 2-D
    float64 array and ``labels`` must lie in ``[0, num_classes)``; the caller
    checks its inputs once per pool (``model.train_epochs``). Non-finite
    logits give a non-finite ``ce``, and a negative label would index from
    the end of its row.
    """
    n, num_classes = logits.shape
    if n == 0 or num_classes == 0:
        raise EmptyInputError(f"cross-entropy of an empty batch: logits have shape {logits.shape}")
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n,):
        raise ShapeError(f"labels have shape {y.shape}, expected ({n},)")
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    grad = np.exp(shifted)
    total = np.add.reduce(grad, axis=1, keepdims=True)
    rows = np.arange(n)
    ce = np.log(total[:, 0]) - shifted[rows, y]
    grad /= total
    grad[rows, y] -= 1.0
    return ce, grad
