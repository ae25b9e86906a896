"""Tests for the numeric primitives and their oracles: validation, softmax, losses, rng."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from inkrementa import numkit
from inkrementa.errors import ShapeError

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=16)


# -- matrix validation ---------------------------------------------------------


def test_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        numkit.as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        numkit.as_matrix([[np.inf, 0.0]])


# -- softmax / cross-entropy --------------------------------------------------


def test_softmax_uniform():
    npt.assert_allclose(oracle.softmax([0, 0, 0]), [1 / 3] * 3, atol=1e-15)


def test_softmax_large_logits_no_overflow():
    out = oracle.softmax([1000.0, 0.0])
    assert np.all(np.isfinite(out))
    assert out[0] > 1 - 1e-12 and out[1] < 1e-12


def test_softmax_matches_direct_formula():
    z = np.array([1.0, 2.0, 3.0])
    direct = np.exp(z) / np.exp(z).sum()
    assert np.max(np.abs(oracle.softmax(z) - direct)) <= 1e-12


def test_softmax_empty_vector():
    with pytest.raises(ValueError):
        oracle.softmax([])


@given(vectors)
def test_softmax_sums_to_one_and_stays_finite(v):
    # float64 underflows exp(z - max) to 0.0 once the logit gap passes ~745,
    # so entries live in [0, 1]; the load-bearing properties are the sum and
    # the absence of NaN/Inf at magnitudes up to 1e3.
    out = oracle.softmax(v)
    assert np.all(np.isfinite(out))
    assert np.all(out >= 0) and np.all(out <= 1 + 1e-12)
    assert abs(out.sum() - 1.0) <= 1e-12


def test_softmax_rows_matches_per_row():
    rng = numkit.make_rng(5)
    z = rng.normal(size=(6, 4)) * 100
    rows = numkit.softmax_rows(z)
    for i in range(6):
        npt.assert_allclose(rows[i], oracle.softmax(z[i]), atol=1e-15)


def test_cross_entropy_uniform_two_logits():
    assert abs(oracle.cross_entropy([0.0, 0.0], 0) - math.log(2)) <= 1e-12


def test_cross_entropy_saturated():
    assert oracle.cross_entropy([10.0, -10.0], 0) < 1e-8


def test_cross_entropy_matches_direct_oracle():
    rng = numkit.make_rng(7)
    z = rng.normal(size=5) * 3
    for label in range(5):
        direct = -np.log(np.exp(z)[label] / np.exp(z).sum())
        assert abs(oracle.cross_entropy(z, label) - direct) <= 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        oracle.cross_entropy([0.0, 0.0], 2)
    with pytest.raises(IndexError):
        oracle.cross_entropy([0.0, 0.0], -1)


@given(vectors, st.data())
def test_cross_entropy_non_negative(v, data):
    label = data.draw(st.integers(min_value=0, max_value=len(v) - 1))
    assert oracle.cross_entropy(v, label) >= 0.0


def test_softmax_cross_entropy_matches_per_row_oracle():
    rng = numkit.make_rng(8)
    z = rng.normal(size=(7, 5)) * 30
    y = rng.integers(0, 5, size=7)
    keep = z.copy()
    row_max, row_sum = np.empty(7), np.empty(7)
    grad = numkit.softmax_ce_grad(z, y, row_max, row_sum, np.arange(7))
    ce = numkit.cross_entropy_rows(z, y, row_max, row_sum)
    npt.assert_array_equal(z, keep)
    npt.assert_array_equal(row_max, z.max(axis=1))
    npt.assert_array_equal(row_sum, np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1))
    for i in range(7):
        assert abs(ce[i] - oracle.cross_entropy(z[i], int(y[i]))) <= 1e-12
    onehot = np.zeros_like(z)
    onehot[np.arange(7), y] = 1.0
    npt.assert_array_equal(grad, numkit.softmax_rows(z) - onehot)


def test_softmax_cross_entropy_rejects_bad_inputs():
    def grad(logits, labels):
        n = logits.shape[0]
        return numkit.softmax_ce_grad(logits, labels, np.empty(n), np.empty(n), np.arange(n))

    with pytest.raises(IndexError):
        grad(np.zeros((2, 3)), [0, 3])
    # an empty batch, a label count other than the row count, a negative
    # label and a non-finite logit are the caller's to rule out:
    # model.train_epochs checks the pool once (see tests/test_model.py)


# -- distance losses ----------------------------------------------------------


def test_mse_identity_and_unit_offset():
    assert oracle.mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert oracle.mse([1.0, 1.0], [0.0, 0.0]) == 1.0


def test_mse_matches_elementwise_oracle():
    rng = numkit.make_rng(3)
    a, b = rng.normal(size=12), rng.normal(size=12)
    direct = sum((x - y) ** 2 for x, y in zip(a, b)) / 12
    assert abs(oracle.mse(a, b) - direct) <= 1e-12


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        oracle.mse([1.0], [1.0, 2.0])


def test_l1_loss_hand_case_and_oracle():
    assert oracle.l1_loss([2.0], [0.0]) == 2.0
    rng = numkit.make_rng(4)
    a, b = rng.normal(size=9), rng.normal(size=9)
    direct = sum(abs(x - y) for x, y in zip(a, b)) / 9
    assert abs(oracle.l1_loss(a, b) - direct) <= 1e-12


def test_kl_identity_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert oracle.kl_divergence(p, p) == 0.0


def test_kl_matches_direct_formula():
    p, q = np.array([0.9, 0.1]), np.array([0.5, 0.5])
    direct = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
    assert abs(oracle.kl_divergence(p, q) - direct) <= 1e-12


def test_kl_floors_q_zeros():
    out = oracle.kl_divergence([0.5, 0.5], [1.0, 0.0])
    expected = 0.5 * math.log(0.5 / 1.0) + 0.5 * math.log(0.5 / 1e-12)
    assert math.isfinite(out)
    assert abs(out - expected) <= 1e-9


def test_kl_zero_p_entries_contribute_nothing():
    assert oracle.kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2))


def test_kl_shape_mismatch():
    with pytest.raises(ShapeError):
        oracle.kl_divergence([1.0], [0.5, 0.5])


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=12),
    st.data(),
)
@settings(max_examples=200)
def test_kl_non_negative_for_valid_distributions(raw_p, data):
    raw_q = data.draw(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=len(raw_p), max_size=len(raw_p))
    )
    p = np.array(raw_p) / np.sum(raw_p)
    q = np.array(raw_q) / np.sum(raw_q)
    assert oracle.kl_divergence(p, q) >= -1e-12


# -- seeded rng ------------------------------------------------------------------


def test_rng_same_seed_identical_first_10k_draws():
    a = numkit.make_rng(1234).random(10_000)
    b = numkit.make_rng(1234).random(10_000)
    npt.assert_array_equal(a, b)


def test_rng_streams_are_distinct():
    a = numkit.make_rng(1234, stream=0).random(100)
    b = numkit.make_rng(1234, stream=1).random(100)
    assert not np.array_equal(a, b)


def test_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        numkit.make_rng(-1)


def test_rng_known_output_is_stable_across_calls():
    # numkit claims a seed's Philox stream is the same on every platform and
    # numpy release; numpy guarantees that for the raw bit-generator stream
    # (NEP 19), so these literals pin it.
    assert numkit.make_rng(0).bit_generator.random_raw(3).tolist() == [
        13303731920906480441,
        496683641761606346,
        7425519458796410224,
    ]
    assert numkit.make_rng(0, stream=1).bit_generator.random_raw(3).tolist() == [
        12441188205270234579,
        8834087402389068706,
        5718262333018195187,
    ]
