"""Tests for the command-line interface: subcommands and exit codes."""

import json
import warnings

import pytest

from inkrementa import cli
from inkrementa.data import load_csv
from inkrementa.harness import ABLATION_PRESETS


def write_config(tmp_path, **overrides):
    doc = {
        "seed": 5,
        "data": {
            "synthetic": {
                "num_classes": 8,
                "input_dim": 3,
                "train_per_class": 15,
                "test_per_class": 4,
            }
        },
        "stages": [[0, 1, 2, 3], [4, 5], [6, 7]],
        "model": {"hidden_dims": [8], "epochs_per_stage": 5},
        "ccs": {"k": 1},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_gen_data_writes_loadable_csvs(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
    train = load_csv(out / "train.csv")
    test = load_csv(out / "test.csv")
    assert train.n_samples == 8 * 15 and test.n_samples == 8 * 4
    assert "train.csv" in capsys.readouterr().out


def test_gen_data_requires_synthetic_section(tmp_path, capsys):
    config = write_config(tmp_path, data={"csv": {"train": "a.csv", "test": "b.csv"}})
    assert cli.main(["gen-data", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_writes_report_and_prints_stages(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert captured.count("stage ") == 3
    doc = json.loads((out / "run-seed5.json").read_text())
    assert doc["seed"] == 5
    assert [s["n_classes"] for s in doc["stages"]] == [4, 6, 8]


def test_run_seed_override_names_the_report(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(config), "--seed", "9", "--out", str(out)]) == 0
    assert (out / "run-seed9.json").exists()


def test_run_twice_produces_identical_bytes(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", str(config), "--out", str(out_a)])
    cli.main(["run", "--config", str(config), "--out", str(out_b)])
    assert (out_a / "run-seed5.json").read_bytes() == (out_b / "run-seed5.json").read_bytes()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, typo_key=1)
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_wrongly_typed_config_value_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, ccs={"k": 1, "alpha_override": "0.5"})
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "ccs.alpha_override must be a number" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert cli.main(["run", "--config", str(path)]) == 2


def test_missing_config_file_exits_3(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 3


def test_missing_csv_data_exits_3(tmp_path, capsys):
    config = write_config(
        tmp_path,
        data={"csv": {"train": str(tmp_path / "no.csv"), "test": str(tmp_path / "no.csv")}},
    )
    assert cli.main(["run", "--config", str(config)]) == 3
    assert "data error" in capsys.readouterr().err


def test_malformed_csv_data_exits_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1.0\n0,not-a-number\n")
    config = write_config(
        tmp_path,
        data={"csv": {"train": str(bad), "test": str(bad)}},
        stages=[[0]],
    )
    assert cli.main(["run", "--config", str(config)]) == 3


def test_train_and_test_csvs_of_different_widths_exit_3(tmp_path, capsys):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text("".join(f"{c}" + ",1.0" * 8 + "\n" for c in (0, 1)))
    test.write_text("".join(f"{c}" + ",1.0" * 7 + "\n" for c in (0, 1)))
    config = write_config(tmp_path, data={"csv": {"train": str(train), "test": str(test)}}, stages=[[0], [1]])
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 3
    assert capsys.readouterr().err == (
        f"data error: {train} has 8 features per row but {test} has 7\n"
    )


def test_label_too_large_for_int64_exits_3(tmp_path, capsys):
    bad = tmp_path / "big.csv"
    bad.write_text("0,1.0\n99999999999999999999,1.0\n")
    config = write_config(tmp_path, data={"csv": {"train": str(bad), "test": str(bad)}}, stages=[[0]])
    assert cli.main(["run", "--config", str(config)]) == 3
    assert "data error: line 2: label must be a non-negative 64-bit integer" in capsys.readouterr().err


def test_config_saved_with_a_bom_runs(tmp_path):
    config = write_config(tmp_path)
    config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 0


def test_non_finite_number_in_config_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    config.write_text(config.read_text().replace('"input_dim": 3', '"input_dim": 3, "center_scale": Infinity'))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    assert f"config error: {config}: Infinity is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("pool,stage", [("train", 0), ("train", 1), ("test", 0), ("test", 1)])
def test_stage_without_train_or_test_rows_exits_2(tmp_path, capsys, pool, stage):
    groups = [[0, 1], [2, 3]]
    pools = {
        name: "".join(
            f"{c},{c}.0,{r}.0\n" for c in range(4) for r in range(3) if name != pool or c not in groups[stage]
        )
        for name in ("train", "test")
    }
    for name, text in pools.items():
        (tmp_path / f"{name}.csv").write_text(text)
    config = write_config(
        tmp_path,
        data={"csv": {"train": str(tmp_path / "train.csv"), "test": str(tmp_path / "test.csv")}},
        stages=groups,
    )
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    assert f"config error: stage {stage} (classes {groups[stage]}) has no {pool} rows" in capsys.readouterr().err


@pytest.mark.parametrize("reader,code", [("config", 2), ("csv", 3), ("report", 3)])
def test_input_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys, reader, code):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"0,1.0\n\xff,2.0\n")
    csv_config = write_config(tmp_path, data={"csv": {"train": str(bad), "test": str(bad)}}, stages=[[0]])
    argv = {
        "config": ["run", "--config", str(bad), "--out", str(tmp_path)],
        "csv": ["run", "--config", str(csv_config), "--out", str(tmp_path)],
        "report": ["report", str(bad), "--out", str(tmp_path / "m.csv")],
    }[reader]
    assert cli.main(argv) == code
    assert f"{bad}: line 2 is not valid UTF-8" in capsys.readouterr().err


def test_runtime_failure_exits_4(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path)

    def boom(config, run_id=None):
        raise RuntimeError("stage 1 failed: synthetic crash")

    monkeypatch.setattr(cli, "run_scenario", boom)
    assert cli.main(["run", "--config", str(config)]) == 4
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("step,stage", [("evaluate", 0), ("ccs_stage_update", 1)])
def test_typed_error_inside_a_stage_keeps_its_exit_code(tmp_path, monkeypatch, capsys, step, stage):
    from inkrementa import harness
    from inkrementa.errors import ParseError

    def unmappable(*args):
        raise ParseError("class 9 was never seen")

    monkeypatch.setattr(harness, step, unmappable)
    assert cli.main(["run", "--config", str(write_config(tmp_path))]) == 3
    assert f"data error: stage {stage} failed: class 9 was never seen" in capsys.readouterr().err


def test_divergence_names_the_stage_and_the_epoch(tmp_path, capsys):
    config = write_config(tmp_path, model={"hidden_dims": [8], "lr": 1e6, "epochs_per_stage": 5})
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "runtime error: stage 1 failed: training diverged in epoch 2 of 5" in err


def test_a_diverging_run_emits_no_runtime_warning(tmp_path, capsys):
    config = write_config(tmp_path, model={"hidden_dims": [8], "lr": 1e6, "epochs_per_stage": 5})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 4
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "runtime error: stage 1 failed: training diverged in epoch 2 of 5" in err


def diverging_config(tmp_path, **overrides):
    """The default 55-class scenario with one SGD step per stage, at a learning rate that overflows."""
    doc = dict(
        seed=0,
        data={
            "synthetic": {
                "num_classes": 55, "input_dim": 8, "train_per_class": 100,
                "test_per_class": 20, "center_scale": 10.0, "stddev": 1.0,
            }
        },
        stages=[list(range(0, 15)), *[list(range(s, s + 10)) for s in (15, 25, 35, 45)]],
        model={"hidden_dims": [64, 32], "lr": 1e300, "batch_size": 100000, "epochs_per_stage": 1},
    )
    return write_config(tmp_path, **{**doc, **overrides})


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {
            "stages": [list(range(55))],
            "ccs": {"k": 1, "use_exemplars": False, "use_distillation": False, "use_weight_align": False},
        },
    ],
    ids=["five-stages", "one-stage-ccs-off"],
)
def test_a_divergence_in_the_last_step_names_its_stage_and_epoch(tmp_path, capsys, overrides):
    # the one step's pre-step loss is finite; only the model it leaves behind is not
    config = diverging_config(tmp_path, **overrides)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 4
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "runtime error: stage 0 failed: training diverged in epoch 1 of 1" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_seed_override_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    assert cli.main(["run", "--config", str(config), "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "config error: seed must be non-negative, got -1" in capsys.readouterr().err


def test_ablate_writes_reports_and_tables(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "ablation"
    code = cli.main(
        ["ablate", "--config", str(config), "--preset", "norms", "--seeds", "1", "--out", str(out)]
    )
    assert code == 0
    assert (out / "summary.csv").exists() and (out / "comparison.csv").exists()
    assert (out / "L2-seed5.json").exists()
    table = (out / "comparison.csv").read_text().splitlines()
    assert len(table) == 3  # header + two norm variants
    assert "acc" in capsys.readouterr().out


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_ablate_with_fewer_than_one_seed_exits_2(tmp_path, capsys, seeds):
    config = write_config(tmp_path)
    assert cli.main(["ablate", "--config", str(config), "--seeds", seeds, "--out", str(tmp_path)]) == 2
    assert "config error: seeds must be >= 1" in capsys.readouterr().err


def test_report_merges_runs_into_csv(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "runs"
    cli.main(["run", "--config", str(config), "--out", str(out)])
    cli.main(["run", "--config", str(config), "--seed", "6", "--out", str(out)])
    merged = tmp_path / "merged.csv"
    code = cli.main(
        ["report", str(out / "run-seed5.json"), str(out / "run-seed6.json"), "--out", str(merged)]
    )
    assert code == 0
    lines = merged.read_text().strip().splitlines()
    assert lines[0] == "run_id,seed,stage,N,accuracy,accn"
    assert len(lines) == 1 + 2 * 3 + 2


def test_report_over_ablate_reports_reproduces_its_summary(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "ablation"
    cli.main(["ablate", "--config", str(config), "--preset", "norms", "--seeds", "2", "--out", str(out)])
    # run order: each variant of the preset, over seeds 5 and 6
    runs = [
        str(out / f"{label}-seed{seed}.json") for label, _ in ABLATION_PRESETS["norms"] for seed in (5, 6)
    ]
    merged = tmp_path / "merged.csv"
    assert cli.main(["report", *runs, "--out", str(merged)]) == 0
    assert merged.read_bytes() == (out / "summary.csv").read_bytes()


def test_report_rejects_non_report_json(tmp_path):
    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"hello": 1}))
    assert cli.main(["report", str(stray), "--out", str(tmp_path / "m.csv")]) == 3


# the metrics of a well-formed final block
FINAL = {"n_classes": 2, "accuracy": 1.0, "accn": 2.0}
# a well-formed one-stage report
ONE_STAGE_REPORT = {"run_id": "x", "seed": 1, "stages": [{**FINAL, "stage": 0}], "final": FINAL}


@pytest.mark.parametrize(
    "doc",
    [
        {"run_id": "x", "seed": 1, "stages": [{"stage": 0}], "final": {}},
        {"run_id": "x", "seed": 1, "stages": 5, "final": {}},
        7,
        {"run_id": {"a": 1}, "seed": 1, "stages": [], "final": FINAL},
        {"run_id": "x", "seed": [1, 2], "stages": [], "final": FINAL},
        {"run_id": "x", "seed": 1, "stages": [{**FINAL, "stage": {}}], "final": FINAL},
        {"run_id": "x", "seed": 1, "stages": [{**FINAL, "stage": 0, "n_classes": 2.5}], "final": FINAL},
        {"run_id": "x", "seed": 1, "stages": [], "final": {**FINAL, "accuracy": True}},
    ],
    ids=[
        "stage-without-metrics",
        "stages-not-a-list",
        "top-level-number",
        "run-id-an-object",
        "seed-a-list",
        "stage-an-object",
        "n-classes-a-fraction",
        "final-accuracy-a-boolean",
    ],
)
def test_report_rejects_malformed_report_with_a_data_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["report", str(bad), "--out", str(tmp_path / "m.csv")]) == 3
    assert f"data error: {bad}" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_report_names_the_field_of_the_wrong_kind(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    stage = {"stage": 0, "n_classes": 2.5, "accuracy": 1.0, "accn": 2.5}
    bad.write_text(json.dumps({"run_id": "x", "seed": 1, "stages": [stage], "final": FINAL}))
    assert cli.main(["report", str(bad), "--out", str(tmp_path / "m.csv")]) == 3
    assert capsys.readouterr().err == (
        f"data error: {bad}: stages[0].n_classes must be an integer; not a run report\n"
    )


def test_report_creates_the_directory_of_its_out_after_reading_every_input(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "runs"
    cli.main(["run", "--config", str(config), "--out", str(out)])
    report = str(out / "run-seed5.json")
    assert cli.main(["report", report, "--out", str(tmp_path / "flat.csv")]) == 0
    nested = tmp_path / "new" / "dir" / "m.csv"
    assert cli.main(["report", report, "--out", str(nested)]) == 0
    assert nested.read_bytes() == (tmp_path / "flat.csv").read_bytes()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hello": 1}))
    assert cli.main(["report", report, str(bad), "--out", str(tmp_path / "other" / "m.csv")]) == 3
    assert not (tmp_path / "other").exists()


@pytest.mark.parametrize(
    "argv,culprit",
    [
        (["run", "--config", "{config}", "--out", "{file}"], "{file}"),
        (["report", "{report}", "--out", "{dir}"], "{dir}"),
        (["report", "{report}", "--out", "{file}/m.csv"], "{file}"),
        (["run", "--config", "{dir}"], "{dir}"),
    ],
    ids=["run-out-a-file", "report-out-a-directory", "report-out-under-a-file", "config-a-directory"],
)
def test_a_path_argument_of_the_wrong_kind_exits_2_naming_it(tmp_path, capsys, argv, culprit):
    paths = {
        "config": write_config(tmp_path),
        "report": tmp_path / "r.json",
        "file": tmp_path / "a_file",
        "dir": tmp_path / "a_dir",
    }
    paths["report"].write_text(json.dumps(ONE_STAGE_REPORT))
    paths["file"].write_text("")
    paths["dir"].mkdir()
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("argument error: ") and repr(culprit.format(**paths)) in err


def test_other_os_errors_still_exit_4(tmp_path, monkeypatch, capsys):
    def disk_full(reports, path):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(cli, "write_summary_csv", disk_full)
    report = tmp_path / "r.json"
    report.write_text(json.dumps(ONE_STAGE_REPORT))
    assert cli.main(["report", str(report), "--out", str(tmp_path / "m.csv")]) == 4
    assert "runtime error: [Errno 28] No space left on device" in capsys.readouterr().err


def test_report_with_a_non_finite_metric_exits_3(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "runs"
    cli.main(["run", "--config", str(config), "--out", str(out)])
    report = out / "run-seed5.json"
    text = report.read_text()
    start = text.index('"accuracy": ') + len('"accuracy": ')
    report.write_text(text[:start] + "NaN" + text[text.index(",", start):])
    merged = tmp_path / "merged.csv"
    assert cli.main(["report", str(report), "--out", str(merged)]) == 3
    assert f"data error: {report}: NaN is not a finite number" in capsys.readouterr().err
    assert not merged.exists()


def test_report_missing_input_exits_3(tmp_path):
    assert cli.main(["report", str(tmp_path / "gone.json"), "--out", str(tmp_path / "m.csv")]) == 3


@pytest.mark.parametrize("command", ["gen-data", "run", "ablate"])
def test_scenario_subcommands_share_config_seed_and_out(command):
    parser = cli.build_parser()
    args = parser.parse_args([command, "--config", "c.json", "--seed", "4", "--out", "o"])
    assert (args.config, args.seed, args.out) == ("c.json", 4, "o")
    args = parser.parse_args([command, "--config", "c.json"])
    assert (args.seed, args.out) == (None, ".")
    with pytest.raises(SystemExit):
        parser.parse_args([command])


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2
