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

from .errors import NonFiniteError, ShapeError

KL_FLOOR = 1e-12


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Create a deterministic generator for ``seed``.

    Distinct ``stream`` values give statistically independent sequences for
    the same seed (used to keep data synthesis and training draws separate).
    A negative seed raises numpy's ``ValueError``.
    """
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


def softmax_rows(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax of a 2-D float64 array with at least one column.

    The result is written into ``out`` (which may be ``z`` itself) or into a
    new array.

    Inputs are not checked: callers check theirs once upstream (the KLD
    distillation gradient of an SGD step and distance of an epoch).
    Non-finite logits give non-finite probabilities.
    """
    # one array, exponentiated and normalised in place: on a pool-sized
    # input each further temporary costs more than the arithmetic
    e = np.subtract(z, np.maximum.reduce(z, axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def softmax_ce_grad(
    logits: np.ndarray,
    labels,
    row_max: np.ndarray,
    row_sum: np.ndarray,
    index: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the per-row cross-entropy with respect to 2-D ``logits``.

    Returns ``softmax(logits) - onehot(labels)``, written into ``out`` (of
    the logits' shape) or into a new array. Along the way it writes each
    row's max into ``row_max`` and the row sum of ``exp(logits - row_max)``
    into ``row_sum`` (1-D, one entry per row): with the logits, that is all
    ``cross_entropy_rows`` needs. ``index`` is the row index
    ``np.arange(n)``.

    This is the SGD step's kernel, and it checks nothing: ``logits`` must be
    a non-empty 2-D float64 array and ``labels`` one label per row in
    ``[0, num_classes)``. Its one caller, the step, takes its batches from
    ``model.train_epochs``, which checks the pool once. Non-finite logits
    give a non-finite gradient, and a negative label would index from the
    end of its row; a label past the last class still raises ``IndexError``.
    """
    np.maximum.reduce(logits, axis=1, out=row_max)
    grad = np.subtract(logits, row_max[:, None], out=out)
    np.exp(grad, out=grad)
    np.add.reduce(grad, axis=1, out=row_sum)
    grad /= row_sum[:, None]
    # one (row, label) pair per row, bounds-checked like the 2-D index
    # ``grad[rows, labels] -= 1.0`` but without its gather and scatter
    np.subtract.at(grad, (index, labels), 1.0)
    return grad


def cross_entropy_rows(logits: np.ndarray, labels, row_max: np.ndarray, row_sum: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy, ``log(row_sum) - (logits[i, labels[i]] - row_max)``.

    ``row_max`` and ``row_sum`` are the row statistics ``softmax_ce_grad``
    wrote for the same logits, so the loss costs one ``log`` and one gather.
    Unchecked, like that kernel.
    """
    ce = np.log(row_sum)
    ce -= logits[np.arange(logits.shape[0]), labels] - row_max
    return ce
