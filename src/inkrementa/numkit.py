"""Dense float64 linear algebra, seeded RNG, and loss/norm primitives.

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


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got {v.ndim}-D")
    return v


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-D float64 arrays."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def softmax(logits) -> np.ndarray:
    """Probability vector from logits, computed with max-subtraction."""
    z = as_vector(logits, "logits")
    if z.size == 0:
        raise EmptyInputError("softmax of an empty vector")
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D logits array."""
    z = as_matrix(logits, "logits")
    if z.shape[1] == 0:
        raise EmptyInputError("softmax over zero classes")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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


def vec_norm(v, kind: str = "l2") -> float:
    """L1 or L2 norm of a nonempty vector."""
    v = as_vector(v, "v")
    if v.size == 0:
        raise EmptyInputError("norm of an empty vector")
    if kind == "l1":
        return float(np.sum(np.abs(v)))
    if kind == "l2":
        return float(np.sqrt(np.sum(v * v)))
    raise ValueError(f"unknown norm kind {kind!r} (expected 'l1' or 'l2')")
