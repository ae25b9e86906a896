"""Dense float64 validation, seeded RNG, the one row softmax, and per-row cross-entropy.

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


def softmax_rows(
    z: np.ndarray, out: np.ndarray | None = None, row_max: np.ndarray | None = None, row_sum: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise softmax of a 2-D float64 array with at least one column.

    The result is written into ``out`` (which may be ``z`` itself) or into a
    new array; each row's max goes into ``row_max`` and its sum of
    ``exp(z - max)`` into ``row_sum`` (1-D; given arrays or new ones), all
    that ``cross_entropy_rows`` needs besides the logits.

    Inputs are not checked: its callers, the SGD step's cross-entropy
    gradient and the KLD loss, run on batches ``model.train_epochs``
    checked. Non-finite logits give non-finite probabilities.
    """
    # one array, exponentiated and normalised in place: on a pool-sized
    # input each further temporary costs more than the arithmetic
    row_max = np.maximum.reduce(z, axis=1, out=row_max)
    e = np.subtract(z, row_max[:, None], out=out)
    np.exp(e, out=e)
    row_sum = np.add.reduce(e, axis=1, out=row_sum)
    e /= row_sum[:, None]
    return e


def cross_entropy_rows(logits: np.ndarray, labels, row_max: np.ndarray, row_sum: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy, ``log(row_sum) - (logits[i, labels[i]] - row_max)``.

    ``row_max`` and ``row_sum`` are the row statistics ``softmax_rows`` wrote
    for the same logits, so the loss costs one ``log`` and one gather.
    Unchecked, like that kernel.
    """
    ce = np.log(row_sum)
    ce -= logits[np.arange(logits.shape[0]), labels] - row_max
    return ce
