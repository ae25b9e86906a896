"""Tests for config parsing, metrics, the staged runner, ablation, reports."""

import json
from dataclasses import replace

import numpy as np
import pytest

from inkrementa import cli, numkit
from inkrementa.data import SyntheticSpec
from inkrementa.errors import ConfigError, ParseError
from inkrementa.harness import (
    ABLATION_PRESETS,
    STAGE_METRICS,
    CcsSettings,
    CsvSource,
    StageReport,
    accn,
    canonical_json,
    evaluate,
    load_config,
    parse_config,
    run_ablation,
    run_base_stage,
    run_scenario,
    write_comparison_csv,
    write_summary_csv,
)
from inkrementa.model import IncModel, ModelConfig


def config_doc(**overrides):
    doc = {
        "seed": 3,
        "data": {
            "synthetic": {
                "num_classes": 12,
                "input_dim": 4,
                "train_per_class": 20,
                "test_per_class": 5,
                "center_scale": 10.0,
                "stddev": 1.0,
            }
        },
        "stages": [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]],
        "model": {"hidden_dims": [16, 8], "lr": 0.1, "batch_size": 16, "epochs_per_stage": 10},
        "ccs": {"k": 1},
    }
    doc.update(overrides)
    return doc


# -- config parsing -------------------------------------------------------------


def test_parse_config_full_document():
    cfg = parse_config(config_doc())
    assert cfg.seed == 3
    assert isinstance(cfg.data, SyntheticSpec) and cfg.data.num_classes == 12
    assert len(cfg.plan.groups) == 3
    assert cfg.model.hidden_dims == (16, 8)
    assert cfg.ccs.k == 1 and cfg.ccs.use_exemplars


def test_parse_config_defaults_for_model_and_ccs():
    doc = config_doc()
    del doc["model"], doc["ccs"]
    cfg = parse_config(doc)
    assert cfg.model == ModelConfig()
    assert cfg.ccs == CcsSettings()


def test_parse_config_rejects_unknown_keys_at_every_level(tmp_path):
    with pytest.raises(ConfigError, match="config"):
        parse_config(config_doc(extra=1))
    with pytest.raises(ConfigError, match="^model must be a JSON object"):
        parse_config(config_doc(model=5))
    with pytest.raises(ConfigError, match="^config must be a JSON object"):
        parse_config([config_doc()])
    (tmp_path / "list.json").write_text(json.dumps([config_doc()]))
    assert cli.main(["run", "--config", str(tmp_path / "list.json"), "--out", str(tmp_path / "out")]) == 2
    doc = config_doc()
    doc["model"]["momentum"] = 0.9
    with pytest.raises(ConfigError, match="model"):
        parse_config(doc)
    doc = config_doc()
    doc["ccs"]["kk"] = 2
    with pytest.raises(ConfigError, match="ccs"):
        parse_config(doc)
    doc = config_doc()
    doc["data"]["synthetic"]["classes"] = 5
    with pytest.raises(ConfigError, match="synthetic"):
        parse_config(doc)


def test_parse_config_requires_exactly_one_data_source():
    doc = config_doc()
    doc["data"]["csv"] = {"train": "a.csv", "test": "b.csv"}
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(doc)
    doc = config_doc()
    doc["data"] = {}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_config_csv_source():
    doc = config_doc()
    doc["data"] = {"csv": {"train": "train.csv", "test": "test.csv"}}
    cfg = parse_config(doc)
    assert cfg.data == CsvSource(train="train.csv", test="test.csv")


def test_parse_config_missing_required_key():
    doc = config_doc()
    del doc["stages"]
    with pytest.raises(ConfigError, match="stages"):
        parse_config(doc)
    doc = config_doc()
    del doc["data"]["synthetic"]["num_classes"]
    with pytest.raises(ConfigError, match="num_classes"):
        parse_config(doc)


def test_parse_config_rejects_non_integer_seed():
    with pytest.raises(ConfigError):
        parse_config(config_doc(seed=True))
    with pytest.raises(ConfigError):
        parse_config(config_doc(seed="7"))


COERCIBLE_FIELDS = [
    ("ccs", "use_exemplars", "false"),
    ("ccs", "k", 1.9),
    ("model", "hidden_dims", "64"),
    ("ccs", "alpha_override", "0.5"),
]


@pytest.mark.parametrize("section,key,value", COERCIBLE_FIELDS, ids=[f[1] for f in COERCIBLE_FIELDS])
def test_parse_config_rejects_wrong_types_instead_of_coercing(section, key, value):
    doc = config_doc()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        parse_config(doc)


@pytest.mark.parametrize("stages", [[["0", 1], [2]], [[0, 1.9], [2]], [[0, True], [2]]])
def test_parse_config_rejects_non_integer_class_ids(stages):
    with pytest.raises(ConfigError, match="stages"):
        parse_config(config_doc(stages=stages))


def test_parse_config_seed_override():
    cfg = parse_config(config_doc(), seed_override=99)
    assert cfg.seed == 99
    assert cfg.echo()["seed"] == 99


def test_config_echo_resolves_defaults():
    doc = config_doc()
    del doc["model"], doc["ccs"]
    echo = parse_config(doc).echo()
    assert echo["model"]["lr"] == 0.1
    assert echo["ccs"]["distill_loss"] == "mse"
    assert echo["ccs"]["alpha_override"] is None
    assert echo["stages"] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]


def csv_doc():
    doc = config_doc()
    doc["data"] = {"csv": {"train": "train.csv", "test": "test.csv"}}
    return doc


def defaults_doc():
    doc = config_doc()
    del doc["model"], doc["ccs"]
    return doc


@pytest.mark.parametrize("make_doc", [config_doc, defaults_doc, csv_doc], ids=["full", "defaults", "csv"])
def test_config_echo_parses_back_to_the_same_config(make_doc):
    cfg = parse_config(make_doc())
    assert parse_config(cfg.echo()) == cfg


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(path)


def test_ccs_settings_validation():
    with pytest.raises(ConfigError):
        CcsSettings(k=0)
    with pytest.raises(ConfigError):
        CcsSettings(distill_loss="huber")
    with pytest.raises(ConfigError):
        CcsSettings(wa_norm="linf")
    with pytest.raises(ConfigError):
        CcsSettings(alpha_override=1.0)


# -- metrics ----------------------------------------------------------------------


def test_accn_edge_values():
    assert accn(10, 0.0) == 0.0
    assert accn(15, 1.0) == 15.0


def always_class_zero_model(input_dim=2, num_classes=10):
    model = IncModel.init(ModelConfig(hidden_dims=()), input_dim, num_classes, numkit.make_rng(0))
    model.head[:] = 0.0
    model.head[0, :] = 1.0  # class 0 wins every argmax on positive inputs
    return model


def uniform_test_set(num_classes=10, per_class=3, input_dim=2):
    from inkrementa.data import LabeledDataset

    feats = np.abs(numkit.make_rng(1).normal(size=(num_classes * per_class, input_dim))) + 0.1
    labels = np.repeat(np.arange(num_classes), per_class)
    return LabeledDataset(feats, labels)


def test_evaluate_constant_predictor_scores_chance():
    model = always_class_zero_model()
    overall, per_group = evaluate(model, [(0, uniform_test_set())])
    assert overall == pytest.approx(0.10)
    assert per_group == [pytest.approx(0.10)]


def test_evaluate_perfect_lookup_model():
    from inkrementa.data import LabeledDataset

    model = IncModel.init(ModelConfig(hidden_dims=()), 3, 3, numkit.make_rng(0))
    model.head[:] = np.eye(3)  # logit j = x[j]; one-hot rows are classified exactly
    feats = np.eye(3)
    ds = LabeledDataset(feats, [0, 1, 2])
    overall, per_group = evaluate(model, [(0, ds)])
    assert overall == 1.0 and per_group == [1.0]


def test_evaluate_matches_per_sample_hand_count():
    from inkrementa.data import LabeledDataset

    model = IncModel.init(ModelConfig(hidden_dims=(6,)), 4, 3, numkit.make_rng(2))
    rng = numkit.make_rng(3)
    sets = []
    for g in range(2):
        feats = rng.normal(size=(11, 4))
        labels = rng.integers(0, 3, size=11)
        sets.append((g, LabeledDataset(feats, labels, class_ids=(0, 1, 2))))
    overall, per_group = evaluate(model, sets)
    hits, total = 0, 0
    for g, ds in sets:
        ghits = 0
        for x, t in zip(ds.features, ds.labels):
            logits, _ = model.forward_batch(x[None, :])
            ghits += int(np.argmax(logits[0]) == t)
        assert per_group[total // 11] == pytest.approx(ghits / 11)
        hits += ghits
        total += 11
    assert overall == pytest.approx(hits / total)


# -- reports ---------------------------------------------------------------------------


def test_stage_report_accn_consistency():
    report = StageReport(stage=1, n_classes=25, accuracy=0.5856,
                         per_group_accuracy=[0.6, 0.5], epoch_losses=[1.0, 0.5])
    assert abs(report.accn - 25 * 0.5856) <= 1e-12
    d = report.to_dict()
    assert "wall_clock_seconds" not in d
    assert d["n_classes"] == 25


def test_stage_report_dict_is_in_report_order():
    report = StageReport(1, 4, 0.5, [0.5], [1.0], wall_clock_seconds=2.0)
    assert report.to_dict() == {
        "stage": 1,
        "n_classes": 4,
        "accuracy": 0.5,
        "accn": 2.0,
        "per_group_accuracy": [0.5],
        "epoch_losses": [1.0],
    }
    assert list(report.to_dict()) == ["stage", *STAGE_METRICS, "per_group_accuracy", "epoch_losses"]


def test_every_public_name_resolves():
    import inkrementa

    assert len(set(inkrementa.__all__)) == len(inkrementa.__all__)
    for name in inkrementa.__all__:
        assert getattr(inkrementa, name) is not None, name


def test_canonical_json_formats_floats_at_six_places():
    doc = {"a": 14.64, "b": [1, True, None], "c": {"x": 0.5}}
    text = canonical_json(doc)
    assert '"a": 14.640000' in text
    assert '"x": 0.500000' in text
    assert "true" in text and "null" in text
    assert json.loads(text) == {"a": 14.64, "b": [1, True, None], "c": {"x": 0.5}}


def test_canonical_json_is_reproducible_and_ordered():
    doc = {"z": 1, "a": 2}
    assert canonical_json(doc) == canonical_json({"z": 1, "a": 2})
    assert canonical_json(doc).index('"z"') < canonical_json(doc).index('"a"')
    with pytest.raises(TypeError):
        canonical_json({"bad": object()})


# -- run_scenario -----------------------------------------------------------------------


def test_run_scenario_stage_counts_and_ideal_curve():
    report = run_scenario(parse_config(config_doc()))
    assert [r.n_classes for r in report.stage_reports] == [4, 8, 12]
    assert report.ideal_accn == [4, 8, 12]
    assert [r.stage for r in report.stage_reports] == [0, 1, 2]
    for r in report.stage_reports:
        assert 0.0 <= r.accuracy <= 1.0
        assert len(r.per_group_accuracy) == r.stage + 1
        assert len(r.epoch_losses) == 10
        assert abs(r.accn - r.n_classes * r.accuracy) <= 1e-12
    assert report.final is report.stage_reports[-1]


def test_run_scenario_single_stage_is_joint_training():
    doc = config_doc(stages=[list(range(12))])
    report = run_scenario(parse_config(doc))
    assert len(report.stage_reports) == 1
    assert report.stage_reports[0].n_classes == 12


def test_run_scenario_reports_are_byte_identical_across_invocations():
    cfg = parse_config(config_doc())
    assert run_scenario(cfg).to_json() == run_scenario(cfg).to_json()


def test_run_scenario_seed_changes_the_run():
    a = run_scenario(parse_config(config_doc(seed=1)))
    b = run_scenario(parse_config(config_doc(seed=2)))
    assert a.to_json() != b.to_json()


def test_run_scenario_report_document_shape(tmp_path):
    cfg = parse_config(config_doc())
    report = run_scenario(cfg, run_id="case")
    doc = report.to_dict()
    assert doc["tool"] == "inkrementa"
    assert doc["run_id"] == "case" and doc["seed"] == 3
    assert doc["config"] == cfg.echo()
    assert doc["final"]["n_classes"] == 12
    path = tmp_path / "case.json"
    report.write(path)
    assert json.loads(path.read_text())["stages"][0]["stage"] == 0


def test_run_scenario_csv_round_trip(tmp_path):
    from inkrementa.data import generate_synthetic, save_csv

    spec = SyntheticSpec(num_classes=6, input_dim=3, train_per_class=15, test_per_class=4)
    train, test = generate_synthetic(spec, 8)
    save_csv(train, tmp_path / "train.csv")
    save_csv(test, tmp_path / "test.csv")
    headerless = (tmp_path / "test.csv").read_text().split("\n", 1)[1]
    (tmp_path / "test.csv").write_text(headerless)
    doc = {
        "seed": 8,
        "data": {"csv": {"train": str(tmp_path / "train.csv"), "test": str(tmp_path / "test.csv")}},
        "stages": [[0, 1, 2], [3, 4, 5]],
        "model": {"hidden_dims": [8], "epochs_per_stage": 5},
    }
    report = run_scenario(parse_config(doc))
    assert [r.n_classes for r in report.stage_reports] == [3, 6]


def test_run_scenario_class_with_test_rows_but_no_train_rows(tmp_path, monkeypatch):
    from inkrementa import harness
    from inkrementa.data import LabeledDataset, generate_synthetic, save_csv

    spec = SyntheticSpec(num_classes=6, input_dim=3, train_per_class=15, test_per_class=4)
    train, test = generate_synthetic(spec, 8)
    keep = train.labels != 4  # class 4: test rows only
    save_csv(LabeledDataset(train.features[keep], train.labels[keep]), tmp_path / "train.csv")
    save_csv(test, tmp_path / "test.csv")
    doc = {
        "seed": 8,
        "data": {"csv": {"train": str(tmp_path / "train.csv"), "test": str(tmp_path / "test.csv")}},
        "stages": [[0, 1, 2], [3, 4, 5]],
        "model": {"hidden_dims": [8], "epochs_per_stage": 5},
    }
    updates = []

    def recording_update(*args):
        updates.append(real_update(*args))
        return updates[-1]

    real_update = harness.ccs_stage_update
    monkeypatch.setattr(harness, "ccs_stage_update", recording_update)
    report = run_scenario(parse_config(doc))
    assert [r.n_classes for r in report.stage_reports] == [3, 6]
    model, store, _ = updates[-1]
    assert model.num_classes == 6  # class 4 has its head row
    assert tuple(store) == (0, 1, 2, 3, 5)  # but no exemplar


def test_run_scenario_reads_every_row_of_a_csv_with_quoted_labels(tmp_path, monkeypatch):
    from inkrementa import harness

    rows = '"0",0.0,1.0\n"1",1.0,0.0\n"0",0.5,1.5\n"1",1.5,0.5\n'
    (tmp_path / "train.csv").write_text(rows)
    (tmp_path / "test.csv").write_text(rows)
    doc = {
        "seed": 8,
        "data": {"csv": {"train": str(tmp_path / "train.csv"), "test": str(tmp_path / "test.csv")}},
        "stages": [[0, 1]],
        "model": {"hidden_dims": [4], "epochs_per_stage": 1},
    }
    trained_rows = []

    def recording_train(model, features, *args, **kwargs):
        trained_rows.append(features.shape[0])
        return real_train(model, features, *args, **kwargs)

    real_train = harness.train_epochs
    monkeypatch.setattr(harness, "train_epochs", recording_train)
    run_scenario(parse_config(doc))
    assert trained_rows == [4]


# -- run_ablation -----------------------------------------------------------------------


def test_run_ablation_rejects_empty_matrix():
    with pytest.raises(ValueError):
        run_ablation(parse_config(config_doc()), [], seeds=1)


def test_run_ablation_rows_and_run_ids():
    cfg = parse_config(config_doc())
    matrix = [("full", {}), ("no-kd", {"use_distillation": False})]
    reports, table = run_ablation(cfg, matrix, seeds=2)
    assert [r.run_id for r in reports] == ["full-seed3", "full-seed4", "no-kd-seed3", "no-kd-seed4"]
    assert [row["method"] for row in table] == ["full", "no-kd"]
    for row in table:
        assert row["seeds"] == 2
        assert 0.0 <= row["final_accuracy_mean"] <= 1.0
        assert row["final_accuracy_std"] >= 0.0
        assert row["final_accn_mean"] == pytest.approx(row["final_accuracy_mean"] * 12, abs=1e-9)


# A variant that trains with distillation and aligns runs first, so a cached
# base model or store that a run mutated would change the later reports.
SHARED_BASE_MATRIX = [
    ("full", {}),
    ("k2", {"k": 2}),
    ("baseline", {"use_exemplars": False, "use_distillation": False, "use_weight_align": False}),
    ("no-wa", {"use_weight_align": False}),
]


def test_run_ablation_reports_equal_standalone_runs():
    cfg = parse_config(config_doc())
    reports, _ = run_ablation(cfg, SHARED_BASE_MATRIX, seeds=2)
    expected = [
        run_scenario(replace(cfg, seed=seed, ccs=replace(cfg.ccs, **overrides)), run_id=f"{label}-seed{seed}")
        for label, overrides in SHARED_BASE_MATRIX
        for seed in (3, 4)
    ]
    assert [r.to_json() for r in reports] == [r.to_json() for r in expected]


def test_run_ablation_trains_stage_zero_once_per_seed_and_k(monkeypatch):
    from inkrementa import harness

    calls = []

    def counting_train(*args, **kwargs):
        calls.append(args)
        return real_train(*args, **kwargs)

    real_train = harness.train_epochs
    monkeypatch.setattr(harness, "train_epochs", counting_train)
    reports, _ = run_ablation(parse_config(config_doc()), SHARED_BASE_MATRIX, seeds=2)
    assert len(reports) == 8
    assert len(calls) == 4  # seeds 3 and 4, each with k=1 and k=2


def test_run_ablation_stage_zero_error_keeps_its_type_and_names_the_stage(monkeypatch):
    from inkrementa import harness

    def unmappable(*args):
        raise ParseError("class 9 was never seen")

    monkeypatch.setattr(harness, "evaluate", unmappable)
    with pytest.raises(ParseError, match="stage 0 failed: class 9 was never seen"):
        run_ablation(parse_config(config_doc()), SHARED_BASE_MATRIX, seeds=1)


def test_run_scenario_rejects_a_base_stage_of_another_seed_or_k():
    cfg = parse_config(config_doc())
    base = run_base_stage(cfg)
    assert run_scenario(cfg, base=base).to_json() == run_scenario(cfg).to_json()
    with pytest.raises(ValueError, match="base stage"):
        run_scenario(replace(cfg, seed=4), base=base)
    with pytest.raises(ValueError, match="base stage"):
        run_scenario(replace(cfg, ccs=replace(cfg.ccs, k=2)), base=base)
    no_wa = run_scenario(replace(cfg, ccs=replace(cfg.ccs, use_weight_align=False)), base=base)
    assert no_wa.stage_reports[0] is base.report


def test_ablation_presets_cover_the_published_rows():
    assert [label for label, _ in ABLATION_PRESETS["components"]] == [
        "baseline", "KD+WA", "E", "E+KD", "E+WA", "E+KD+WA",
    ]
    assert [label for label, _ in ABLATION_PRESETS["losses"]] == ["MSE", "KLD", "L1"]
    assert len(ABLATION_PRESETS["norms"]) == 2


# -- CSV writers ---------------------------------------------------------------------------


def test_summary_and_comparison_csv_structure(tmp_path):
    cfg = parse_config(config_doc())
    reports, table = run_ablation(cfg, [("full", {})], seeds=2)
    summary = tmp_path / "summary.csv"
    comparison = tmp_path / "comparison.csv"
    write_summary_csv(reports, summary)
    write_comparison_csv(table, comparison)

    lines = summary.read_text().strip().splitlines()
    assert lines[0] == "run_id,seed,stage,N,accuracy,accn"
    # 2 runs x 3 stages + 2 final rows
    assert len(lines) == 1 + 2 * 3 + 2
    assert sum(1 for l in lines if ",final," in l) == 2

    clines = comparison.read_text().strip().splitlines()
    assert clines[0] == "method,seeds,final_accuracy_mean,final_accuracy_std,final_accn_mean,final_accn_std"
    assert len(clines) == 2 and clines[1].startswith("full,2,")


def test_csv_writers_pin_their_bytes_for_hand_written_inputs(tmp_path):
    doc = {
        "run_id": "E,KD-seed3",
        "seed": 3,
        "stages": [
            {"stage": 0, "n_classes": 2, "accuracy": 1, "accn": 2},
            {"stage": 1, "n_classes": 4, "accuracy": 0.8125, "accn": 3.25},
        ],
        "final": {"stage": 1, "n_classes": 4, "accuracy": 0.8125, "accn": 3.25},
    }
    (tmp_path / "run.json").write_text(json.dumps(doc))
    summary = tmp_path / "summary.csv"
    assert cli.main(["report", str(tmp_path / "run.json"), "--out", str(summary)]) == 0
    assert summary.read_bytes() == (
        b"run_id,seed,stage,N,accuracy,accn\r\n"
        b'"E,KD-seed3",3,0,2,1.000000,2.000000\r\n'
        b'"E,KD-seed3",3,1,4,0.812500,3.250000\r\n'
        b'"E,KD-seed3",3,final,4,0.812500,3.250000\r\n'
    )

    table = [
        {"method": "E,KD", "seeds": 2, "final_accuracy_mean": 0.5, "final_accuracy_std": 0.0625,
         "final_accn_mean": 27.5, "final_accn_std": 1 / 3},
        {"method": "baseline", "seeds": 2, "final_accuracy_mean": 0.1, "final_accuracy_std": 0.0,
         "final_accn_mean": 5.5, "final_accn_std": 2.25},
    ]
    comparison = tmp_path / "comparison.csv"
    write_comparison_csv(table, comparison)
    assert comparison.read_bytes() == (
        b"method,seeds,final_accuracy_mean,final_accuracy_std,final_accn_mean,final_accn_std\r\n"
        b'"E,KD",2,0.500000,0.062500,27.500000,0.333333\r\n'
        b"baseline,2,0.100000,0.000000,5.500000,2.250000\r\n"
    )
