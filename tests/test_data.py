"""Tests for dataset construction, CSV and JSON ingestion, stage splits, standardization."""

import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inkrementa import numkit
from inkrementa.data import (
    LabeledDataset,
    StagePlan,
    SyntheticSpec,
    apply_standardization,
    generate_synthetic,
    load_csv,
    read_json,
    save_csv,
    split_stages,
    standardization_stats,
)
from inkrementa.errors import ConfigError, ParseError, PlanError
from inkrementa.model import IncModel, ModelConfig, train_epochs


# -- LabeledDataset ------------------------------------------------------------


def test_dataset_basic_accessors():
    ds = LabeledDataset(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), [0, 1, 0])
    assert ds.n_samples == 3 and ds.input_dim == 2
    assert ds.class_ids == (0, 1)
    npt.assert_array_equal(ds.class_rows(0), [[1.0, 2.0], [5.0, 6.0]])


def test_dataset_class_ids_keep_insertion_order():
    ds = LabeledDataset(np.zeros((3, 1)), [5, 2, 5])
    assert ds.class_ids == (5, 2)


def test_dataset_rejects_mismatched_labels():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), [0, 1])


def test_dataset_rejects_labels_outside_class_ids():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), [0, 7], class_ids=(0, 1))


def test_empty_dataset_is_allowed():
    ds = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    assert ds.n_samples == 0 and ds.class_ids == ()


# -- StagePlan --------------------------------------------------------------------


def test_plan_rejects_overlap_and_empty_groups():
    with pytest.raises(PlanError):
        StagePlan(((0, 1), (1, 2)))
    with pytest.raises(PlanError):
        StagePlan(((0, 1), ()))
    with pytest.raises(PlanError):
        StagePlan(())


def test_plan_accessors():
    plan = StagePlan(((0, 1, 2), (3, 4)))
    assert len(plan.groups) == 2


# -- synthetic generation ------------------------------------------------------------


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(num_classes=0, input_dim=2, train_per_class=5, test_per_class=2)
    with pytest.raises(ConfigError):
        SyntheticSpec(num_classes=2, input_dim=0, train_per_class=5, test_per_class=2)
    with pytest.raises(ConfigError):
        SyntheticSpec(num_classes=2, input_dim=2, train_per_class=0, test_per_class=2)
    with pytest.raises(ConfigError):
        SyntheticSpec(num_classes=2, input_dim=2, train_per_class=5, test_per_class=2, stddev=0.0)


def test_synthetic_same_seed_is_identical():
    spec = SyntheticSpec(num_classes=4, input_dim=3, train_per_class=10, test_per_class=5)
    a_train, a_test = generate_synthetic(spec, 17)
    b_train, b_test = generate_synthetic(spec, 17)
    npt.assert_array_equal(a_train.features, b_train.features)
    npt.assert_array_equal(a_test.features, b_test.features)
    npt.assert_array_equal(a_train.labels, b_train.labels)


def test_synthetic_different_seed_differs():
    spec = SyntheticSpec(num_classes=4, input_dim=3, train_per_class=10, test_per_class=5)
    assert not np.array_equal(generate_synthetic(spec, 17)[0].features, generate_synthetic(spec, 18)[0].features)


def test_synthetic_counts_and_shapes():
    spec = SyntheticSpec(num_classes=6, input_dim=5, train_per_class=8, test_per_class=3)
    train, test = generate_synthetic(spec, 0)
    assert train.features.shape == (48, 5) and test.features.shape == (18, 5)
    for c in range(6):
        assert train.class_rows(c).shape[0] == 8
        assert test.class_rows(c).shape[0] == 3


def test_synthetic_tiny_stddev_collapses_to_centers():
    # the stddev -> 0 limit: every sample of class c sits on center_c
    spec = SyntheticSpec(num_classes=3, input_dim=4, train_per_class=6, test_per_class=2,
                         center_scale=5.0, stddev=1e-12)
    train, test = generate_synthetic(spec, 2)
    for ds in (train, test):
        for c in range(3):
            rows = ds.class_rows(c)
            npt.assert_allclose(rows, np.broadcast_to(rows[0], rows.shape), atol=1e-9)
    npt.assert_allclose(train.class_rows(1)[0], test.class_rows(1)[0], atol=1e-9)


def test_synthetic_separable_corpus_trains_to_90_percent():
    # sanity oracle: scale/stddev ratio 10 in 8-D with 50 classes is easily
    # separable, so a jointly trained classifier must clear 90% test accuracy
    spec = SyntheticSpec(num_classes=50, input_dim=8, train_per_class=40, test_per_class=10,
                         center_scale=10.0, stddev=1.0)
    train, test = generate_synthetic(spec, 5)
    stats = standardization_stats(train)
    train = apply_standardization(train, stats)
    test = apply_standardization(test, stats)
    cfg = ModelConfig(hidden_dims=(64, 32), lr=0.1, batch_size=32, epochs_per_stage=30)
    model = IncModel.init(cfg, 8, 50, numkit.make_rng(1))
    train_epochs(model, train.features, train.labels, numkit.make_rng(2))
    logits, _ = model.forward_batch(test.features)
    accuracy = np.mean(logits.argmax(axis=1) == test.labels)
    assert accuracy >= 0.90


# -- CSV ingestion -------------------------------------------------------------------


def test_load_csv_hand_written(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("0,1.5,2.5\n1,0.0,1.0\n")
    ds = load_csv(path)
    assert ds.n_samples == 2 and ds.input_dim == 2
    assert ds.class_ids == (0, 1)
    npt.assert_array_equal(ds.features, [[1.5, 2.5], [0.0, 1.0]])


def test_load_csv_skips_header_when_told(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("label,f1,f2\n0,1.0,2.0\n")
    ds = load_csv(path)
    assert ds.n_samples == 1


def test_load_csv_ragged_row_cites_line_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0,1.0,2.0,3.0\n0,1.5\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path)


def test_load_csv_rejects_a_row_without_features(tmp_path):
    path = tmp_path / "label-only.csv"
    path.write_text("3\n")
    with pytest.raises(ParseError, match=re.escape("line 1: expected 'label,f1,...' but found 1 field(s)")):
        load_csv(path)


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0\n1,abc\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path)


@pytest.mark.parametrize("line", [1, 2])
@pytest.mark.parametrize("row", ["1,nan", "1,inf", "1,-Infinity", "1,1_0.5", "1_0,1.0"])
def test_load_csv_rejects_non_finite_cells_and_digit_separators(tmp_path, row, line):
    rows = ["0,1.0", "0,2.0"]
    rows[line - 1] = row
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError, match=f"line {line}"):
        load_csv(path)


def test_load_csv_negative_label(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("-1,1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(path)


def test_load_csv_label_beyond_int64_cites_line_number(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("9223372036854775807,1.0\n99999999999999999999,1.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path)
    path.write_text("9223372036854775807,1.0\n")
    assert load_csv(path).labels.tolist() == [2**63 - 1]


@pytest.mark.parametrize("header", ["", "label,f1\n"])
def test_load_csv_with_a_bom_keeps_every_row_and_line_number(tmp_path, header):
    path = tmp_path / "bom.csv"
    path.write_bytes(("\ufeff" + header + "0,1.0\n1,2.0\n").encode("utf-8"))
    ds = load_csv(path)
    assert ds.n_samples == 2
    npt.assert_array_equal(ds.labels, [0, 1])
    path.write_bytes("\ufeff0,1.0\n1,abc\n".encode("utf-8"))
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_read_json_rejects_non_finite_numbers_naming_the_file(tmp_path, token):
    path = tmp_path / "doc.json"
    path.write_text('{"a": [1.5, %s]}' % token)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {token} is not a finite number")):
        read_json(path, ConfigError)
    path.write_text('{"a": [1.5, 2]}')
    assert read_json(path, ConfigError) == {"a": [1.5, 2]}


def test_read_json_names_the_file_of_invalid_json(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{oops")
    with pytest.raises(ParseError, match=re.escape(f"{path} is not valid JSON")):
        read_json(path, ParseError)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blanks.csv"
    path.write_text("0,1.0\n\n1,2.0\n")
    assert load_csv(path).n_samples == 2


def test_csv_round_trip_is_lossless(tmp_path):
    spec = SyntheticSpec(num_classes=3, input_dim=4, train_per_class=5, test_per_class=2)
    train, _ = generate_synthetic(spec, 3)
    path = tmp_path / "round.csv"
    save_csv(train, path)
    back = load_csv(path)
    npt.assert_array_equal(back.features, train.features)
    npt.assert_array_equal(back.labels, train.labels)


# -- stage splits --------------------------------------------------------------------


def five_stage_corpus(seed=7):
    spec = SyntheticSpec(num_classes=55, input_dim=3, train_per_class=4, test_per_class=2)
    return generate_synthetic(spec, seed)


def test_split_55_classes_into_five_stages():
    train, test = five_stage_corpus()
    plan = StagePlan((tuple(range(15)), tuple(range(15, 25)), tuple(range(25, 35)),
                      tuple(range(35, 45)), tuple(range(45, 55))))
    stages = split_stages(train, test, plan)
    assert len(stages) == 5
    assert [len(s[0].class_ids) for s in stages] == [15, 10, 10, 10, 10]
    assert stages[0][0].n_samples == 15 * 4 and stages[1][1].n_samples == 10 * 2
    # the plan is in id order, so every class keeps its id
    for group, pair in zip(plan.groups, stages):
        for dataset in pair:
            assert dataset.class_ids == group
            assert set(dataset.labels.tolist()) == set(group)


def test_split_remap_is_contiguous_in_stage_visit_order():
    ds = LabeledDataset(np.zeros((6, 1)), [4, 9, 2, 4, 9, 2])
    plan = StagePlan(((9,), (2, 4)))
    stages = split_stages(ds, ds, plan)
    # 9 -> 0, 2 -> 1, 4 -> 2: plan order, not id order
    assert [s[0].class_ids for s in stages] == [(0,), (1, 2)]
    npt.assert_array_equal(stages[0][0].labels, [0, 0])
    npt.assert_array_equal(stages[1][0].labels, [2, 1, 2, 1])


def test_split_keeps_row_order_within_a_stage():
    ds = LabeledDataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 2])
    stages = split_stages(ds, ds, StagePlan(((0, 2), (1,))))
    for dataset in stages[0]:
        npt.assert_array_equal(dataset.features, [[0.0, 1.0], [4.0, 5.0], [6.0, 7.0]])
        npt.assert_array_equal(dataset.labels, [0, 0, 1])


def test_split_remap_is_exact():
    ds = LabeledDataset(np.zeros((3, 1)), [7, 3, 7])
    stages = split_stages(ds, ds, StagePlan(((7,), (3,))))
    for (train, test), labels, class_ids in zip(stages, ([0, 0], [1]), ((0,), (1,))):
        for dataset in (train, test):
            npt.assert_array_equal(dataset.labels, labels)
            assert dataset.labels.dtype == np.int64
            assert dataset.class_ids == class_ids


def test_split_concatenation_is_a_permutation_of_source():
    train, test = five_stage_corpus(seed=9)
    plan = StagePlan((tuple(range(15)), tuple(range(15, 25)), tuple(range(25, 35)),
                      tuple(range(35, 45)), tuple(range(45, 55))))
    stages = split_stages(train, test, plan)
    rebuilt = np.vstack([s[0].features for s in stages])
    assert rebuilt.shape == train.features.shape
    order = np.lexsort(rebuilt.T)
    src_order = np.lexsort(train.features.T)
    npt.assert_array_equal(rebuilt[order], train.features[src_order])


def test_split_permuted_plan_same_samples_different_grouping():
    train, test = five_stage_corpus(seed=11)
    base = StagePlan((tuple(range(15)), tuple(range(15, 25)), tuple(range(25, 35)),
                      tuple(range(35, 45)), tuple(range(45, 55))))
    permuted = StagePlan((tuple(range(15)), tuple(range(25, 35)), tuple(range(45, 55)),
                          tuple(range(35, 45)), tuple(range(15, 25))))
    stages_a = split_stages(train, test, base)
    stages_b = split_stages(train, test, permuted)
    npt.assert_array_equal(stages_a[1][0].features, stages_b[4][0].features)
    a_all = np.sort(np.vstack([s[0].features for s in stages_a]), axis=0)
    b_all = np.sort(np.vstack([s[0].features for s in stages_b]), axis=0)
    npt.assert_array_equal(a_all, b_all)


def test_split_single_group_is_one_joint_stage():
    ds = LabeledDataset(np.zeros((4, 2)), [0, 1, 2, 1])
    stages = split_stages(ds, ds, StagePlan(((0, 1, 2),)))
    assert len(stages) == 1
    assert stages[0][0].n_samples == 4
    assert stages[0][0].class_ids == (0, 1, 2)
    npt.assert_array_equal(stages[0][0].labels, [0, 1, 2, 1])


def test_split_rejects_missing_or_unknown_classes():
    ds = LabeledDataset(np.zeros((3, 1)), [0, 1, 2])
    with pytest.raises(PlanError):
        split_stages(ds, ds, StagePlan(((0, 1),)))
    with pytest.raises(PlanError):
        split_stages(ds, ds, StagePlan(((0, 1, 2, 3),)))


@st.composite
def plans_and_pools(draw):
    """A random plan over random ids, and a (train, test) pair it splits.

    Every stage gets a train row and a test row and every class a row in one
    of the pools, but a class may have no rows in either one. Row i of a pool
    has feature i, so the split's rows can be traced back.
    """
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1))) if len(ids) > 1 else [])
    groups = [tuple(ids[a:b]) for a, b in zip([0, *cuts], [*cuts, len(ids)])]
    counts = {c: draw(st.tuples(st.integers(0, 3), st.integers(0, 3))) for c in ids}
    for c in ids:
        if counts[c] == (0, 0):
            counts[c] = draw(st.sampled_from([(1, 0), (0, 1)]))
    for group in groups:
        for pool in (0, 1):
            if not any(counts[c][pool] for c in group):
                c = draw(st.sampled_from(group))
                counts[c] = tuple(1 if p == pool else n for p, n in enumerate(counts[c]))
    pools = []
    for pool in (0, 1):
        labels = draw(st.permutations([c for c in ids for _ in range(counts[c][pool])]))
        pools.append(LabeledDataset(np.arange(len(labels), dtype=np.float64)[:, None], labels))
    return StagePlan(tuple(groups)), pools


@settings(max_examples=200, deadline=None)
@given(plans_and_pools())
def test_split_stage_guarantees_hold_for_random_plans_and_pools(case):
    """The facts every later layer takes on trust: a train and a test row per
    stage, the next ``len(group)`` ids per stage, and every row once."""
    plan, pools = case
    stages = split_stages(*pools, plan)
    assert len(stages) == len(plan.groups)
    seen = 0
    for group, pair in zip(plan.groups, stages):
        ids = tuple(range(seen, seen + len(group)))
        for dataset in pair:
            assert dataset.n_samples >= 1
            assert dataset.class_ids == ids
            assert set(dataset.labels.tolist()) <= set(ids)
        seen += len(group)
    for pool, split in zip(pools, zip(*stages)):
        rows = np.concatenate([dataset.features[:, 0] for dataset in split])
        npt.assert_array_equal(np.sort(rows), np.arange(pool.n_samples))


# -- standardization -----------------------------------------------------------------


def test_standardization_normalizes_the_fit_pool():
    rng = numkit.make_rng(19)
    ds = LabeledDataset(rng.normal(5.0, 3.0, size=(200, 4)), np.zeros(200, dtype=np.int64))
    stats = standardization_stats(ds)
    out = apply_standardization(ds, stats)
    npt.assert_allclose(out.features.mean(axis=0), np.zeros(4), atol=1e-12)
    npt.assert_allclose(out.features.std(axis=0), np.ones(4), atol=1e-12)


def test_standardization_zero_variance_column_maps_to_unit_divisor():
    ds = LabeledDataset(np.array([[1.0, 2.0], [1.0, 4.0]]), [0, 0])
    mean, std = standardization_stats(ds)
    assert std[0] == 1.0
    out = apply_standardization(ds, (mean, std))
    npt.assert_array_equal(out.features[:, 0], [0.0, 0.0])


def test_standardization_stats_come_from_the_given_pool_only():
    fit = LabeledDataset(np.array([[0.0], [2.0]]), [0, 0])
    other = LabeledDataset(np.array([[100.0], [102.0]]), [0, 0])
    stats = standardization_stats(fit)
    out = apply_standardization(other, stats)
    npt.assert_allclose(out.features, [[99.0], [101.0]])
