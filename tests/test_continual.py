"""Tests for herding selection, exemplar stores, weight aligning, stage updates."""

import numpy as np
import numpy.testing as npt
import pytest

from inkrementa import continual, numkit
from inkrementa.continual import (
    CcsSettings,
    build_exemplar_store,
    ccs_stage_update,
    herding_select,
    weight_align,
)
from inkrementa.data import LabeledDataset
from inkrementa.errors import DegenerateHeadError
from inkrementa.model import DISTILL_LOSSES, IncModel, ModelConfig, train_epochs


def embed_model(input_dim=4, num_classes=3, seed=0, hidden=()):
    """With no hidden layers the embedding is the raw input, which makes the
    geometry of herding directly controllable from the test."""
    cfg = ModelConfig(hidden_dims=hidden)
    return IncModel.init(cfg, input_dim, num_classes, numkit.make_rng(seed))


# -- CcsSettings ----------------------------------------------------------------


def test_ccs_settings_default_alpha_schedule():
    ctx = CcsSettings()
    assert ctx.mixing_alpha(15, 10) == pytest.approx(0.06, abs=1e-15)
    assert CcsSettings().mixing_alpha(25, 10) == pytest.approx(0.1 * 25 / 35, abs=1e-15)


def test_ccs_settings_alpha_override_wins():
    assert CcsSettings(alpha_override=0.3).mixing_alpha(15, 10) == 0.3


# -- herding_select ----------------------------------------------------------------


def herding_oracle(model, samples, k):
    """Brute-force reference: normalize embeddings, mean, full distance sort."""
    _, embeddings = model.forward_batch(samples)
    normalized = []
    for e in embeddings:
        norm = np.sqrt(np.sum(e * e))
        normalized.append(e / norm if norm > 0 else e)
    normalized = np.array(normalized)
    center = normalized.mean(axis=0)
    distances = [float(np.sqrt(np.sum((row - center) ** 2))) for row in normalized]
    order = sorted(range(len(distances)), key=lambda i: (distances[i], i))
    return order[: min(k, len(distances))]


def test_herding_single_candidate():
    model = embed_model()
    assert herding_select(model, np.array([[1.0, 0.0, 0.0, 0.0]]), 1) == [0]


def test_herding_k_exhausts_all_samples():
    model = embed_model()
    samples = numkit.make_rng(5).normal(size=(4, 4))
    chosen = herding_select(model, samples, 99)
    assert sorted(chosen) == [0, 1, 2, 3]
    assert chosen == herding_oracle(model, samples, 99)


def test_herding_keeps_a_zero_embedding_at_zero():
    # normalized, the rows are the origin and two unit vectors; their mean
    # (1/3, 1/3, 0, 0) is nearest the origin, then equidistant from the two
    model = embed_model()
    samples = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]])
    assert herding_select(model, samples, 3) == [0, 1, 2]


def test_herding_ties_break_toward_lower_index():
    model = embed_model()
    row = np.array([2.0, 0.0, 0.0, 0.0])
    samples = np.vstack([row, row, row])  # all equidistant (distance 0)
    assert herding_select(model, samples, 2) == [0, 1]


# -- build_exemplar_store ---------------------------------------------------------


def class_dataset(num_classes, per_class, input_dim=4, seed=0, first_id=0):
    rng = numkit.make_rng(seed)
    ids = list(range(first_id, first_id + num_classes))
    feats = rng.normal(size=(num_classes * per_class, input_dim))
    labels = np.repeat(ids, per_class)
    return LabeledDataset(feats, labels, class_ids=tuple(ids))


def test_build_store_k1_adds_one_entry_per_class():
    model = embed_model()
    ds = class_dataset(10, 6)
    store = build_exemplar_store(model, ds, k=1)
    assert tuple(store) == tuple(range(10))
    assert all(rows.shape == (1, 4) for rows in store.values())


def test_build_store_450_exemplars_case():
    # 15 classes with capacity 30 -> 450 retained samples
    model = embed_model()
    ds = class_dataset(15, 40, seed=2)
    store = build_exemplar_store(model, ds, k=30)
    assert sum(len(rows) for rows in store.values()) == 450


def test_build_store_empty_dataset_returns_store_unchanged():
    model = embed_model()
    existing = build_exemplar_store(model, class_dataset(3, 5), k=1)
    empty = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    out = build_exemplar_store(model, empty, k=1, existing=existing)
    assert out == existing and out is not existing


def test_build_store_never_mutates_existing():
    model = embed_model()
    existing = build_exemplar_store(model, class_dataset(3, 5), k=1)
    frozen = {c: rows.copy() for c, rows in existing.items()}
    extended = build_exemplar_store(model, class_dataset(2, 5, seed=3, first_id=3), k=1, existing=existing)
    assert tuple(extended) == (0, 1, 2, 3, 4)
    assert tuple(existing) == (0, 1, 2)
    for c, rows in frozen.items():
        npt.assert_array_equal(existing[c], rows)


def test_build_store_rows_are_read_only_and_shared_by_extensions():
    model = embed_model()
    existing = build_exemplar_store(model, class_dataset(3, 5), k=2)
    before = dict(existing)
    extended = build_exemplar_store(model, class_dataset(2, 5, seed=3, first_id=3), k=2, existing=existing)
    assert existing == before  # same keys, same row objects
    for c, rows in extended.items():
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 9.0
        if c in existing:
            assert rows is existing[c]


def test_build_store_rows_are_the_herding_choices():
    model = embed_model(seed=4)
    ds = class_dataset(2, 20, seed=5)
    store = build_exemplar_store(model, ds, k=3)
    for c in (0, 1):
        rows = ds.class_rows(c)
        chosen = herding_select(model, rows, 3)
        npt.assert_array_equal(store[c], rows[chosen])


# -- weight_align ---------------------------------------------------------------------


def test_weight_align_identity_when_norms_balance():
    head = np.array([[3.0, 0.0], [0.0, 3.0], [3.0, 0.0], [0.0, 3.0]])
    aligned = weight_align(head, u=2)
    npt.assert_array_equal(aligned, head)


def test_weight_align_l1_norm_variant():
    head = np.array([[1.0, 1.0], [4.0, -4.0]])
    aligned = weight_align(head, u=1, norm="l1")
    # gamma = 2/8 under L1
    npt.assert_allclose(aligned[1], [1.0, -1.0], atol=1e-15)


def test_weight_align_errors():
    with pytest.raises(DegenerateHeadError):
        weight_align(np.array([[1.0, 0.0], [0.0, 0.0]]), u=1)
    with pytest.raises(KeyError):
        weight_align(np.ones((2, 2)), u=1, norm="linf")


def test_weight_align_monotone_argmax_for_old_winners():
    # scaling new rows down (gamma < 1) can never steal an old-class argmax
    rng = numkit.make_rng(7)
    for trial in range(50):
        u, v, dim = 4, 3, 6
        head = rng.normal(size=(u + v, dim))
        head[u:] *= rng.uniform(1.5, 4.0)  # new rows larger -> gamma < 1
        embedding = rng.normal(size=dim)
        logits_before = head @ embedding
        if np.argmax(logits_before) >= u:
            continue
        aligned = weight_align(head, u=u)
        logits_after = aligned @ embedding
        assert np.argmax(logits_after) == np.argmax(logits_before)


# -- ccs_stage_update -------------------------------------------------------------------


def stage_inputs(seed=0):
    cfg = ModelConfig(hidden_dims=(8,), lr=0.1, batch_size=8, epochs_per_stage=4)
    rng = numkit.make_rng(seed)
    prev = IncModel.init(cfg, 4, 3, rng)
    base = class_dataset(3, 12, seed=seed + 1)
    store = build_exemplar_store(prev, base, k=1)
    new_data = class_dataset(2, 12, seed=seed + 2, first_id=3)
    return prev, new_data, store, cfg


def test_stage_update_grows_model_and_store():
    prev, new_data, store, cfg = stage_inputs(seed=3)
    ctx = CcsSettings(k=1)
    model, new_store, losses = ccs_stage_update(prev, new_data, store, ctx, numkit.make_rng(4))
    assert model.num_classes == 5
    assert tuple(new_store) == (0, 1, 2, 3, 4)
    assert sum(len(rows) for rows in new_store.values()) == 5
    assert len(losses) == cfg.epochs_per_stage
    # inputs untouched
    assert prev.num_classes == 3
    assert tuple(store) == (0, 1, 2)


@pytest.mark.parametrize("distill_loss", DISTILL_LOSSES)
def test_distilling_stage_update_leaves_the_teacher_and_the_store_as_they_were(distill_loss):
    prev, new_data, store, cfg = stage_inputs(seed=17)
    params = [p.tobytes() for p in (*prev.weights, *prev.biases, prev.head)]
    rows = dict(store)
    row_bytes = {c: r.tobytes() for c, r in store.items()}
    settings = CcsSettings(distill_loss=distill_loss)
    assert settings.mixing_alpha(prev.num_classes, 2) > 0  # the update distills from prev
    ccs_stage_update(prev, new_data, store, settings, numkit.make_rng(18))
    assert [p.tobytes() for p in (*prev.weights, *prev.biases, prev.head)] == params
    assert tuple(store) == tuple(rows)
    for c, r in store.items():
        assert r is rows[c] and r.tobytes() == row_bytes[c]


def test_alpha_zero_updates_exactly_as_distillation_off():
    prev, new_data, store, cfg = stage_inputs(seed=19)
    (a, a_store, a_losses), (b, b_store, b_losses) = (
        ccs_stage_update(prev, new_data, store, settings, numkit.make_rng(20))
        for settings in (CcsSettings(alpha_override=0.0), CcsSettings(use_distillation=False))
    )
    assert [p.tobytes() for p in (*a.weights, *a.biases, a.head)] == [
        p.tobytes() for p in (*b.weights, *b.biases, b.head)
    ]
    assert tuple(a_store) == tuple(b_store)
    assert all(a_store[c].tobytes() == b_store[c].tobytes() for c in a_store)
    assert np.array_equal(a_losses, b_losses)


def test_stage_update_old_store_rows_are_frozen():
    prev, new_data, store, cfg = stage_inputs(seed=5)
    frozen = {c: rows.copy() for c, rows in store.items()}
    ctx = CcsSettings(k=1)
    _, new_store, _ = ccs_stage_update(prev, new_data, store, ctx, numkit.make_rng(6))
    for c, rows in frozen.items():
        npt.assert_array_equal(new_store[c], rows)


def test_stage_update_new_exemplars_use_the_updated_model():
    prev, new_data, store, cfg = stage_inputs(seed=7)
    ctx = CcsSettings(k=2)
    model, new_store, _ = ccs_stage_update(prev, new_data, store, ctx, numkit.make_rng(8))
    for c in (3, 4):
        rows = new_data.class_rows(c)
        npt.assert_array_equal(new_store[c], rows[herding_select(model, rows, 2)])


@pytest.mark.parametrize("use_exemplars,empty_store", [(True, False), (False, False), (True, True)])
def test_stage_update_trains_on_new_rows_then_exemplars_in_insertion_order(monkeypatch, use_exemplars, empty_store):
    prev, new_data, _, cfg = stage_inputs(seed=15)
    rng = numkit.make_rng(16)
    # a store whose insertion order is not its id order, with uneven class sizes
    store = {2: rng.normal(size=(2, 4)), 0: rng.normal(size=(1, 4)), 1: rng.normal(size=(3, 4))}
    if empty_store:
        store = {}
    pools = []

    def capture(model, features, labels, rng, **kwargs):
        pools.append((features.copy(), labels.copy()))
        return train_epochs(model, features, labels, rng, **kwargs)

    monkeypatch.setattr(continual, "train_epochs", capture)
    ccs_stage_update(prev, new_data, store, CcsSettings(use_exemplars=use_exemplars), numkit.make_rng(17))
    [(features, labels)] = pools
    if use_exemplars and store:
        npt.assert_array_equal(features, np.vstack([new_data.features, store[2], store[0], store[1]]))
        npt.assert_array_equal(labels, [*new_data.labels, 2, 2, 0, 1, 1, 1])
    else:
        npt.assert_array_equal(features, new_data.features)
        npt.assert_array_equal(labels, new_data.labels)


def test_stage_update_weight_align_toggle_changes_only_new_rows_scale():
    prev, new_data, store, cfg = stage_inputs(seed=9)
    on, _, _ = ccs_stage_update(prev, new_data, store, CcsSettings(), numkit.make_rng(10))
    off, _, _ = ccs_stage_update(prev, new_data, store,
                                 CcsSettings(use_weight_align=False), numkit.make_rng(10))
    npt.assert_array_equal(on.head[:3], off.head[:3])
    old_mean = np.sqrt((on.head[:3] ** 2).sum(axis=1)).mean()
    new_mean = np.sqrt((on.head[3:] ** 2).sum(axis=1)).mean()
    assert abs(old_mean - new_mean) <= 1e-9
    # the un-aligned head retains whatever scale training produced
    ratio = np.sqrt((off.head[3:] ** 2).sum(axis=1)).mean() / np.sqrt((on.head[3:] ** 2).sum(axis=1)).mean()
    assert ratio != pytest.approx(1.0)


def test_stage_update_distillation_protects_old_logits():
    # with distillation on, old-class logits on old-class data drift less
    prev, new_data, store, cfg = stage_inputs(seed=13)
    probe = class_dataset(3, 12, seed=14).features
    before, _ = prev.forward_batch(probe)
    ctx_on = CcsSettings(use_exemplars=False, use_weight_align=False, alpha_override=0.9)
    ctx_off = CcsSettings(use_exemplars=False, use_distillation=False, use_weight_align=False)
    with_kd, _, _ = ccs_stage_update(prev, new_data, store, ctx_on, numkit.make_rng(15))
    without, _, _ = ccs_stage_update(prev, new_data, store, ctx_off, numkit.make_rng(15))
    drift_on = np.mean((with_kd.forward_batch(probe)[0][:, :3] - before) ** 2)
    drift_off = np.mean((without.forward_batch(probe)[0][:, :3] - before) ** 2)
    assert drift_on < drift_off
