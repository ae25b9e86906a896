"""Tests for the expandable-head MLP: forward, backprop, training, snapshots."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import oracle
from inkrementa import model as model_module
from inkrementa import numkit
from inkrementa.continual import weight_align
from inkrementa.errors import ConfigError, DivergenceError, NonFiniteError, ShapeError
from inkrementa.model import (
    DISTILL_LOSSES,
    DISTILL_TABLE,
    IncModel,
    ModelConfig,
    TeacherSnapshot,
    row_losses,
    train_epochs,
)


def small_config(**overrides):
    base = dict(hidden_dims=(5,), lr=0.1, batch_size=4, epochs_per_stage=3)
    base.update(overrides)
    return ModelConfig(**base)


def make_model(num_classes=3, seed=0, **overrides):
    return IncModel.init(small_config(**overrides), 6, num_classes, numkit.make_rng(seed))


def step_loss(model, X, y, t_logits=None, alpha=0.0, distill_loss="mse"):
    """One SGD step; returns its pre-step mean loss, from the step's record."""
    record = model.backward_and_step(X, y, t_logits=t_logits, alpha=alpha, distill_loss=distill_loss)
    # the distance may overwrite the teacher logits it is given
    t_copy = None if t_logits is None else t_logits.copy()
    losses = row_losses(record, y, t_copy, alpha, distill_loss)
    return float(np.add.reduce(losses) / losses.shape[0])


# -- config validation ----------------------------------------------------------


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        ModelConfig(hidden_dims=(8, 0))
    with pytest.raises(ConfigError):
        ModelConfig(lr=0.0)
    with pytest.raises(ConfigError):
        ModelConfig(batch_size=0)
    with pytest.raises(ConfigError):
        ModelConfig(epochs_per_stage=0)


# -- initialization ---------------------------------------------------------------


def test_init_same_seed_gives_identical_parameters():
    a = make_model(seed=42)
    b = make_model(seed=42)
    for wa, wb in zip(a.weights, b.weights):
        npt.assert_array_equal(wa, wb)
    npt.assert_array_equal(a.head, b.head)


def test_init_head_shape_matches_last_hidden():
    cfg = ModelConfig(hidden_dims=(64, 32))
    model = IncModel.init(cfg, 16, 15, numkit.make_rng(0))
    assert model.head.shape == (15, 32)
    assert model.num_classes == 15 and model.embed_dim == 32


def test_init_biases_zero_and_weights_within_he_bound():
    model = make_model()
    for b in model.biases:
        npt.assert_array_equal(b, np.zeros_like(b))
    for w in model.weights + [model.head]:
        bound = np.sqrt(6.0 / w.shape[1])
        assert np.all(np.abs(w) <= bound)


def test_init_no_hidden_layers_is_linear_classifier():
    cfg = ModelConfig(hidden_dims=())
    model = IncModel.init(cfg, 4, 3, numkit.make_rng(1))
    assert model.weights == [] and model.embed_dim == 4
    x = np.array([1.0, -2.0, 0.5, 0.0])
    logits, embedding = model.forward_batch(x[None, :])
    npt.assert_array_equal(embedding[0], x)
    npt.assert_allclose(logits[0], model.head @ x, atol=1e-15)


# -- forward ---------------------------------------------------------------------


def test_forward_zero_weights_gives_zero_logits():
    model = make_model()
    for w in model.weights:
        w[:] = 0.0
    model.head[:] = 0.0
    logits, _ = model.forward_batch(np.ones(6)[None, :])
    npt.assert_array_equal(logits[0], np.zeros(3))


def test_forward_matches_hand_arithmetic_one_hidden_unit():
    # x=[1,2]: z = 0.5*1 - 0.25*2 + 0.1 = 0.1 -> a = 0.1; head [[2],[-1]]
    cfg = ModelConfig(hidden_dims=(1,))
    model = IncModel.init(cfg, 2, 2, numkit.make_rng(0))
    model.weights[0][:] = np.array([[0.5, -0.25]])
    model.biases[0][:] = np.array([0.1])
    model.head[:] = np.array([[2.0], [-1.0]])
    logits, embedding = model.forward_batch([[1.0, 2.0]])
    npt.assert_allclose(embedding[0], [0.1], atol=1e-15)
    npt.assert_allclose(logits[0], [0.2, -0.1], atol=1e-15)
    # negative pre-activation is clamped by the ReLU
    logits2, embedding2 = model.forward_batch([[0.0, 1.0]])
    npt.assert_allclose(embedding2[0], [0.0], atol=1e-15)
    npt.assert_allclose(logits2[0], [0.0, 0.0], atol=1e-15)


def test_forward_batch_equals_per_sample():
    model = make_model(num_classes=4, seed=3)
    # one block plus a remainder, several blocks plus a remainder, and no rows
    for n_rows in (7, 3 * model.config.batch_size + 5, 0):
        X = numkit.make_rng(8).normal(size=(n_rows, 6))
        logits, embeddings = model.forward_batch(X)
        assert logits.shape == (n_rows, 4)
        assert embeddings.shape == (n_rows, model.embed_dim)
        for i in range(n_rows):
            li, ei = model.forward_batch(X[i][None, :])
            npt.assert_allclose(logits[i], li[0], atol=1e-12)
            npt.assert_allclose(embeddings[i], ei[0], atol=1e-12)


def test_forward_dimension_mismatch():
    model = make_model()
    with pytest.raises(ShapeError):
        model.forward_batch(np.ones(5)[None, :])
    with pytest.raises(ShapeError):
        model.forward_batch(np.ones((2, 7)))
    with pytest.raises(ShapeError, match="X must be 2-D"):
        model.forward_batch(np.ones(6))


def test_forward_batch_rejects_non_finite_rows():
    model = make_model()
    for bad in (np.nan, np.inf, -np.inf):
        X = np.ones((3, 6))
        X[1, 2] = bad
        with pytest.raises(NonFiniteError):
            model.forward_batch(X)


# -- head expansion ---------------------------------------------------------------


def test_expand_head_preserves_old_rows_bit_exactly():
    model = make_model(num_classes=15)
    before = model.head.copy()
    model.expand_head(10, numkit.make_rng(5))
    assert model.head.shape[0] == 25
    npt.assert_array_equal(model.head[:15], before)


def test_expand_head_twice():
    model = make_model(num_classes=15)
    rng = numkit.make_rng(5)
    model.expand_head(10, rng)
    model.expand_head(10, rng)
    assert model.num_classes == 35


def test_expand_head_keeps_old_logits_unchanged():
    model = make_model(num_classes=5, seed=2)
    x = numkit.make_rng(6).normal(size=6)
    logits_before, _ = model.forward_batch(x[None, :])
    model.expand_head(3, numkit.make_rng(7))
    logits_after, _ = model.forward_batch(x[None, :])
    npt.assert_array_equal(logits_after[0, :5], logits_before[0])
    assert np.argmax(logits_after[0, :5]) == np.argmax(logits_before[0])


def test_a_copy_of_a_trained_model_shares_no_memory_and_steps_alone():
    # every ablation variant starts from a copy of one shared stage-0 model
    model = make_model(num_classes=3, seed=9)
    X = numkit.make_rng(10).normal(size=(8, 6))
    y = numkit.make_rng(11).integers(0, 3, size=8)
    for _ in range(3):
        model.backward_and_step(X, y)  # trained, so its parameters are views of a flat vector
    originals = [*model.weights, *model.biases, model.head]
    before = [p.tobytes() for p in originals]

    clone = model.copy()
    fresh = [*clone.weights, *clone.biases, clone.head]
    for _ in range(3):
        clone.backward_and_step(X, y)  # each step packs the copy into a new vector of its own
    stepped = [*clone.weights, *clone.biases, clone.head]

    for copies in (fresh, stepped):
        assert not any(np.shares_memory(a, b) for a in originals for b in copies)
    assert [p.tobytes() for p in (*model.weights, *model.biases, model.head)] == before
    assert clone.head.tobytes() != before[-1]


@pytest.mark.parametrize(
    "duplicate", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"]
)
def test_a_deep_copied_or_pickled_trained_model_steps_like_the_original(duplicate):
    model = make_model(num_classes=3, seed=12)
    X = numkit.make_rng(13).normal(size=(8, 6))
    y = numkit.make_rng(14).integers(0, 3, size=8)
    model.backward_and_step(X, y)  # its parameters are views of a flat vector
    twin = duplicate(model)
    for _ in range(3):
        model.backward_and_step(X, y)
        twin.backward_and_step(X, y)
    assert_same_bits(twin, model)


# -- train_epochs setting checks --------------------------------------------------


@pytest.mark.parametrize(
    "alpha, teacher_classes, distill_loss, error",
    [
        pytest.param(-0.1, None, "mse", ValueError, id="alpha-negative"),
        pytest.param(1.5, None, "mse", ValueError, id="alpha-out-of-range"),
        pytest.param(0.5, None, "mse", ValueError, id="teacher-missing"),
        pytest.param(0.0, 3, "mse", ValueError, id="teacher-without-alpha"),
        pytest.param(0.5, 3, "huber", ValueError, id="unknown-loss"),
        pytest.param(0.5, 5, "mse", ShapeError, id="teacher-wider"),
    ],
)
def test_a_rejected_train_epochs_call_has_no_side_effects(
    monkeypatch, alpha, teacher_classes, distill_loss, error
):
    """A bad setting is rejected before any random draw, teacher pass or step."""
    model = make_model(num_classes=3)
    teacher = None if teacher_classes is None else make_model(num_classes=teacher_classes).snapshot()
    calls = {"teacher": 0, "steps": 0}
    teacher_forward, step = TeacherSnapshot.forward_batch, IncModel.backward_and_step

    def counted_teacher_forward(self, X):
        calls["teacher"] += 1
        return teacher_forward(self, X)

    def counted_step(self, *args, **kwargs):
        calls["steps"] += 1
        return step(self, *args, **kwargs)

    monkeypatch.setattr(TeacherSnapshot, "forward_batch", counted_teacher_forward)
    monkeypatch.setattr(IncModel, "backward_and_step", counted_step)
    rng = numkit.make_rng(3)
    rng_state = copy.deepcopy(rng.bit_generator.state)
    params = [p.tobytes() for p in (*model.weights, *model.biases, model.head)]
    X, y = numkit.make_rng(2).normal(size=(10, 6)), np.arange(10) % 3
    with pytest.raises(error):
        train_epochs(model, X, y, rng, teacher=teacher, alpha=alpha, distill_loss=distill_loss)
    npt.assert_equal(rng.bit_generator.state, rng_state)
    assert [p.tobytes() for p in (*model.weights, *model.biases, model.head)] == params
    assert calls == {"teacher": 0, "steps": 0}


def test_step_rejects_out_of_range_labels():
    model = make_model(num_classes=3)
    with pytest.raises(IndexError):
        model.backward_and_step(np.ones((2, 6)), np.array([0, 3]))
    # a flat index would send this label into the next row instead of raising
    with pytest.raises(IndexError):
        model.backward_and_step(np.ones((2, 6)), np.array([3, 0]))


# -- gradient behavior -----------------------------------------------------------


def test_identical_teacher_contributes_zero_distillation():
    model = make_model(num_classes=3, seed=4)
    rng = numkit.make_rng(9)
    X = rng.normal(size=(4, 6))
    y = np.array([0, 1, 2, 0])
    ce_only = step_loss(model.copy(), X, y, alpha=0.0)
    t_logits = model.snapshot().forward_batch(X)[0]
    loss = step_loss(model.copy(), X, y, t_logits=t_logits, alpha=0.4, distill_loss="mse")
    assert loss == pytest.approx(0.6 * ce_only, rel=1e-12)


def test_returned_loss_is_pre_step():
    model = make_model(num_classes=3, seed=5)
    X = numkit.make_rng(1).normal(size=(4, 6))
    y = np.array([0, 1, 2, 1])
    probe = model.copy()
    first = step_loss(probe, X, y)
    # the same batch re-evaluated on the stepped model must beat the reported
    # pre-step loss on this convex-enough step
    second = step_loss(probe, X, y)
    assert first == pytest.approx(np.mean([oracle.cross_entropy(l, int(t)) for l, t in zip(model.forward_batch(X)[0], y)]))
    assert second < first


@pytest.mark.parametrize("rows, alpha", [(32, 0.0), (13, 0.05)], ids=["full-ce", "ragged-distilling"])
def test_step_records_the_pre_step_logits_and_their_softmax_sums(rows, alpha):
    model, teacher = reference_pair(seed=44)
    X = numkit.make_rng(45).normal(size=(rows, 8)) * 2.0
    y = numkit.make_rng(46).integers(0, 15, size=rows)
    t_logits = teacher.forward_batch(X)[0] if alpha > 0 else None
    before = model.forward_batch(X)[0]
    shifted_sum = np.add.reduce(np.exp(before - before.max(axis=1, keepdims=True)), axis=1)

    t_before = None if t_logits is None else t_logits.copy()

    fresh = model.copy().backward_and_step(X, y, t_logits=t_logits, alpha=alpha, distill_loss="kld")
    out = (np.full((rows, 15), np.nan), np.full(rows, np.nan), np.full(rows, np.nan))
    written = model.backward_and_step(X, y, t_logits=t_logits, alpha=alpha, distill_loss="kld", out=out)

    assert all(a is b for a, b in zip(written, out))
    # the epoch's loss reads the teacher logits after its steps
    assert np.array_equal(t_logits, t_before)
    for logits, row_max, row_sum in (fresh, written):
        assert np.array_equal(logits, before)
        assert np.array_equal(row_max, before.max(axis=1))
        assert np.array_equal(row_sum, shifted_sum)
    assert not np.array_equal(model.forward_batch(X)[0], before)  # the step did step


# -- training loop ------------------------------------------------------------------


def toy_three_class_set(seed=0):
    rng = numkit.make_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    X = np.vstack([rng.normal(c, 1.0, size=(100, 2)) for c in centers])
    y = np.repeat(np.arange(3), 100)
    return X, y


def test_training_reaches_95_percent_on_separable_toy_set():
    cfg = ModelConfig(hidden_dims=(16,), lr=0.1, batch_size=32, epochs_per_stage=200)
    model = IncModel.init(cfg, 2, 3, numkit.make_rng(0))
    X, y = toy_three_class_set()
    losses = train_epochs(model, X, y, numkit.make_rng(1))
    assert len(losses) == 200
    logits, _ = model.forward_batch(X)
    accuracy = np.mean(logits.argmax(axis=1) == y)
    assert accuracy >= 0.95
    assert losses[-1] < losses[0]


def test_train_epochs_rejects_empty_data():
    model = make_model()
    with pytest.raises(ValueError):
        train_epochs(model, np.zeros((0, 6)), np.zeros(0, dtype=np.int64), numkit.make_rng(0))


@pytest.mark.parametrize("shape", [(9,), (11,), (10, 1)], ids=["shorter", "longer", "column"])
def test_train_epochs_rejects_labels_that_do_not_match_the_rows(shape):
    model = make_model(num_classes=3)
    X = numkit.make_rng(2).normal(size=(10, 6))
    with pytest.raises(ShapeError, match="labels"):
        train_epochs(model, X, np.zeros(shape, dtype=np.int64), numkit.make_rng(3))


def test_train_epochs_rejects_a_negative_label():
    # the step indexes each row's logits by its label, so -1 would silently
    # read the last class
    model = make_model(num_classes=3)
    X = numkit.make_rng(2).normal(size=(10, 6))
    y = np.zeros(10, dtype=np.int64)
    y[4] = -1
    before = model.head.copy()
    with pytest.raises(IndexError):
        train_epochs(model, X, y, numkit.make_rng(3))
    npt.assert_array_equal(model.head, before)


def test_train_epochs_rejects_features_of_the_wrong_width():
    model = make_model(num_classes=3)
    X = numkit.make_rng(2).normal(size=(10, 5))
    with pytest.raises(ShapeError, match="dim 5"):
        train_epochs(model, X, np.zeros(10, dtype=np.int64), numkit.make_rng(3))


def test_train_epochs_rejects_a_non_finite_feature():
    model = make_model(num_classes=3)
    X = numkit.make_rng(2).normal(size=(10, 6))
    X[7, 2] = np.inf
    with pytest.raises(NonFiniteError):
        train_epochs(model, X, np.zeros(10, dtype=np.int64), numkit.make_rng(3))


def test_a_diverging_kld_run_names_the_epoch():
    # the KLD loss trusts its logits; the epoch loss check reports the divergence
    model, teacher = reference_pair(seed=60)  # epochs 3, batch 32
    model.config = replace(model.config, lr=1e10)
    data = numkit.make_rng(61)
    X, y = data.normal(size=(77, 8)), data.integers(0, 15, size=77)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="diverged in epoch 2 of 3"):
        train_epochs(model, X, y, numkit.make_rng(62), teacher=teacher, alpha=0.5, distill_loss="kld")


@pytest.mark.parametrize("distill_loss", ["mse", "l1", "kld"])
def test_distilling_training_runs_the_teacher_once_and_revalidates_no_batch(monkeypatch, distill_loss):
    """Per-pool work happens once per ``train_epochs`` call, not once per step."""
    model, teacher = reference_pair(seed=60)  # epochs 3, batch 32
    calls = {"teacher": 0, "steps": 0, "as_matrix_in_step": 0, "epoch_losses": 0}
    in_step = [False]
    teacher_forward, as_matrix = TeacherSnapshot.forward_batch, numkit.as_matrix
    step, losses_of = IncModel.backward_and_step, model_module.row_losses

    def counted_teacher_forward(self, X):
        calls["teacher"] += 1
        return teacher_forward(self, X)

    def watched_as_matrix(*args, **kwargs):
        calls["as_matrix_in_step"] += in_step[0]
        return as_matrix(*args, **kwargs)

    def watched_step(self, *args, **kwargs):
        calls["steps"] += 1
        in_step[0] = True
        try:
            return step(self, *args, **kwargs)
        finally:
            in_step[0] = False

    def counted_losses(*args, **kwargs):
        calls["epoch_losses"] += 1
        return losses_of(*args, **kwargs)

    monkeypatch.setattr(TeacherSnapshot, "forward_batch", counted_teacher_forward)
    monkeypatch.setattr(numkit, "as_matrix", watched_as_matrix)
    monkeypatch.setattr(IncModel, "backward_and_step", watched_step)
    monkeypatch.setattr(model_module, "row_losses", counted_losses)
    data = numkit.make_rng(61)
    X, y = data.normal(size=(77, 8)), data.integers(0, 15, size=77)
    train_epochs(model, X, y, numkit.make_rng(62), teacher=teacher, alpha=0.05, distill_loss=distill_loss)
    # the loss is computed once per epoch, over all of its rows
    assert calls == {"teacher": 1, "steps": 3 * 3, "as_matrix_in_step": 0, "epoch_losses": 3}


# -- bit-identity with the frozen reference step -------------------------------------


def reference_pair(seed=40, hidden_dims=(64, 32)):
    """A 10-class teacher and its 15-class student, by default at the default architecture."""
    cfg = ModelConfig(hidden_dims=hidden_dims, lr=0.1, batch_size=32, epochs_per_stage=3)
    teacher_model = IncModel.init(cfg, 8, 10, numkit.make_rng(seed))
    X = numkit.make_rng(seed + 1).normal(size=(32, 8))
    for _ in range(5):
        teacher_model.backward_and_step(X, np.arange(32) % 10)
    student = teacher_model.copy()
    student.expand_head(5, numkit.make_rng(seed + 2))
    return student, teacher_model.snapshot()


def assert_same_bits(model, ref):
    for w, rw in zip(model.weights, ref.weights):
        assert np.array_equal(w, rw)
    for b, rb in zip(model.biases, ref.biases):
        assert np.array_equal(b, rb)
    assert np.array_equal(model.head, ref.head)


@pytest.mark.parametrize("distill_loss", DISTILL_LOSSES)
def test_distill_table_is_bit_identical_to_the_reference_chain(distill_loss):
    rng = numkit.make_rng(42)
    for rows in (32, 13):
        logits = rng.normal(size=(rows, 15)) * 3.0
        t_logits = rng.normal(size=(rows, 10)) * 3.0
        t_logits[0, 1] = -1000.0  # a teacher probability that underflows to 0
        distance, gradient = DISTILL_TABLE[distill_loss]
        grad = gradient(logits[:, :10], t_logits)
        value = distance(logits[:, :10], t_logits.copy())  # the distance may overwrite its teacher logits
        ref_value, ref_grad = oracle.reference_distill(distill_loss, logits[:, :10], t_logits)
        assert np.array_equal(value, ref_value)
        assert np.array_equal(grad, ref_grad)


def expand_by_two(model):
    model.expand_head(2, numkit.make_rng(43))


# At alpha 0 the step skips distillation whatever its loss, so cross-entropy
# alone runs once (id ``mse-0.0``) and each distillation loss at alpha 0.05.
LOSS_CASES = [("mse", 0.0), *((loss, 0.05) for loss in DISTILL_LOSSES)]


# Each case's id is distill_loss-alpha-rows; the cases at another architecture
# (``linear`` without hidden layers) or with a head grown in mid-run append
# it. Layer widths and a grown head move every parameter's offset in the flat
# vector. A head replaced by one of the same shape is checked at the
# ``train_epochs`` level.
STEP_CASES = [
    pytest.param(
        distill_loss,
        alpha,
        rows,
        hidden_dims,
        change,
        id="-".join(
            [distill_loss, str(alpha), rows_id]
            + ([] if hidden_dims == (64, 32) else ["x".join(map(str, hidden_dims)) or "linear"])
            + ([] if change is None else [change.__name__])
        ),
    )
    for hidden_dims in [(64, 32), (16,), (24, 16, 8), ()]
    for change in [None, expand_by_two]
    for distill_loss, alpha in LOSS_CASES
    for rows, rows_id in [(32, "full"), (13, "ragged")]
]


@pytest.mark.parametrize("distill_loss, alpha, rows, hidden_dims, change", STEP_CASES)
def test_step_is_bit_identical_to_the_reference_step(distill_loss, alpha, rows, hidden_dims, change):
    model, teacher = reference_pair(hidden_dims=hidden_dims)
    ref = model.copy()
    teacher = teacher if alpha > 0 else None
    rng = numkit.make_rng(41)
    for step in range(6):
        if step == 3 and change is not None:
            change(model)
            change(ref)
        X = rng.normal(size=(rows, 8)) * 2.0
        y = rng.integers(0, 15, size=rows)
        t_logits = None if teacher is None else teacher.forward_batch(X)[0]
        loss = step_loss(model, X, y, t_logits=t_logits, alpha=alpha, distill_loss=distill_loss)
        ref_loss = oracle.reference_step(ref, X, y, t_logits=t_logits, alpha=alpha, distill_loss=distill_loss)
        assert np.array_equal(loss, ref_loss)
        assert_same_bits(model, ref)


# Pools of 77 rows (2 full batches of 32 and one of 13) keep the case ids
# distill_loss-alpha; the others append their row count: no full batch (1, 5),
# no partial one (32), and a one-row tail (33).
POOL_CASES = [
    pytest.param(
        distill_loss, alpha, rows, id="-".join([distill_loss, str(alpha)] + ([] if rows == 77 else [f"{rows}rows"]))
    )
    for rows in [77, 1, 5, 32, 33]
    for distill_loss, alpha in LOSS_CASES
]


@pytest.mark.parametrize("distill_loss, alpha, rows", POOL_CASES)
def test_train_epochs_is_bit_identical_to_a_per_batch_gather_loop(distill_loss, alpha, rows):
    model, teacher = reference_pair(seed=50)
    model.config = replace(model.config, lr=0.05)  # epochs 3, batch 32
    ref = model.copy()
    teacher = teacher if alpha > 0 else None
    data = numkit.make_rng(51)
    X = data.normal(size=(rows, 8))
    y = data.integers(0, 15, size=rows)
    loss_settings = dict(teacher=teacher, alpha=alpha, distill_loss=distill_loss)
    losses = train_epochs(model, X, y, numkit.make_rng(52), **loss_settings)
    ref_losses = oracle.reference_train_epochs(ref, X, y, numkit.make_rng(52), **loss_settings)
    assert np.array_equal(losses, ref_losses)
    assert_same_bits(model, ref)


@pytest.mark.parametrize("distill_loss, alpha", LOSS_CASES, ids=["ce", *DISTILL_LOSSES])
def test_two_train_epochs_calls_around_a_head_change_match_the_reference(distill_loss, alpha):
    """Each call sizes its work arrays from the model as it stands at that call.

    Between the calls the head grows by 3 classes and is swapped for its
    aligned copy, and the teacher grows from 10 to 15 classes, as over a
    stage update; the pools leave short last batches of 13 and 8 rows.
    """
    model, first_teacher = reference_pair(seed=53)  # epochs 3, batch 32
    ref = model.copy()
    data = numkit.make_rng(54)
    X1, y1 = data.normal(size=(45, 8)), data.integers(0, 15, size=45)
    X2, y2 = data.normal(size=(40, 8)), data.integers(0, 18, size=40)
    losses = []
    for m, train in ((model, train_epochs), (ref, oracle.reference_train_epochs)):
        teacher = first_teacher if alpha > 0 else None
        losses.append(train(m, X1, y1, numkit.make_rng(55), teacher=teacher, alpha=alpha, distill_loss=distill_loss))
        teacher = m.snapshot() if alpha > 0 else None
        m.expand_head(3, numkit.make_rng(56))
        m.head = weight_align(m.head, 15)
        losses[-1] += train(m, X2, y2, numkit.make_rng(57), teacher=teacher, alpha=alpha, distill_loss=distill_loss)
    assert np.array_equal(*losses)
    assert_same_bits(model, ref)


@pytest.mark.parametrize("distill_loss", DISTILL_LOSSES)
def test_train_epochs_leaves_read_only_inputs_and_the_teacher_as_they_were(distill_loss):
    """A pool of store rows is read-only, and the epoch's loss overwrites the gathered teacher logits."""
    model, teacher = reference_pair(seed=58)
    data = numkit.make_rng(59)
    X, y = data.normal(size=(45, 8)), data.integers(0, 15, size=45)
    X.setflags(write=False)
    y.setflags(write=False)
    before = (X.tobytes(), y.tobytes(), teacher.forward_batch(X)[0].tobytes())
    train_epochs(model, X, y, numkit.make_rng(60), teacher=teacher, alpha=0.05, distill_loss=distill_loss)
    assert (X.tobytes(), y.tobytes(), teacher.forward_batch(X)[0].tobytes()) == before


# -- teacher snapshots ----------------------------------------------------------------


def test_snapshot_is_frozen_under_student_training():
    model = make_model(num_classes=3, seed=6)
    snap = model.snapshot()
    X = numkit.make_rng(4).normal(size=(8, 6))
    y = numkit.make_rng(5).integers(0, 3, size=8)
    reference, _ = snap.forward_batch(X)
    for _ in range(10):
        model.backward_and_step(X, y)
    npt.assert_array_equal(snap.forward_batch(X)[0], reference)


def test_snapshot_matches_model_at_snapshot_time():
    model = make_model(num_classes=3, seed=7)
    snap = model.snapshot()
    x = numkit.make_rng(6).normal(size=6)
    npt.assert_array_equal(snap.forward_batch(x[None, :])[0], model.forward_batch(x[None, :])[0])


def test_two_snapshots_are_output_identical():
    model = make_model(num_classes=3, seed=8)
    x = numkit.make_rng(7).normal(size=6)
    npt.assert_array_equal(
        model.snapshot().forward_batch(x[None, :])[0], model.snapshot().forward_batch(x[None, :])[0]
    )


def test_snapshot_arrays_are_read_only():
    snap = make_model().snapshot()
    with pytest.raises(ValueError):
        snap._model.head[0, 0] = 1.0
