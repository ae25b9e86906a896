"""Acceptance suite: the eleven headline guarantees, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Criterion 11 runs a harder corpus, where distillation (KD) and
weight aligning (WA) interact: each alone lowers final accuracy below
exemplars alone (E); together they raise it. The heavy multi-seed scenario
runs are shared through module-scoped fixtures; the whole file stays well
inside the per-criterion runtime budgets asserted below.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import oracle
from inkrementa import numkit
from inkrementa.continual import weight_align
from inkrementa.data import LabeledDataset
from inkrementa.harness import (
    ABLATION_PRESETS,
    accn,
    parse_config,
    run_ablation,
    run_scenario,
)
from inkrementa.model import DISTILL_LOSSES, IncModel, ModelConfig
from inkrementa.continual import CcsSettings, build_exemplar_store, ccs_stage_update, herding_select

GROUPS = {
    "A": list(range(0, 15)),
    "B": list(range(15, 25)),
    "C": list(range(25, 35)),
    "D": list(range(35, 45)),
    "E": list(range(45, 55)),
}
USER_ORDERS = {
    "user1": ("A", "B", "C", "D", "E"),
    "user2": ("A", "C", "E", "D", "B"),
    "user3": ("A", "D", "E", "B", "C"),
    "user4": ("A", "E", "B", "C", "D"),
}
FULL = {"use_exemplars": True, "use_distillation": True, "use_weight_align": True}
ALL_OFF = {"use_exemplars": False, "use_distillation": False, "use_weight_align": False}


def default_doc(seed=0, order="user1"):
    """The default separable synthetic scenario: 55 classes, stages 15/10/10/10/10."""
    return {
        "seed": seed,
        "data": {
            "synthetic": {
                "num_classes": 55,
                "input_dim": 8,
                "train_per_class": 100,
                "test_per_class": 20,
                "center_scale": 10.0,
                "stddev": 1.0,
            }
        },
        "stages": [GROUPS[g] for g in USER_ORDERS[order]],
        "model": {"hidden_dims": [64, 32], "lr": 0.1, "batch_size": 32, "epochs_per_stage": 30},
        "ccs": {"k": 1},
    }


@pytest.fixture(scope="module")
def component_runs():
    """Components ablation on the default scenario, seeds 0/1/2 (18 runs)."""
    cfg = parse_config(default_doc())
    t0 = time.perf_counter()
    reports, table = run_ablation(cfg, ABLATION_PRESETS["components"], seeds=3)
    elapsed = time.perf_counter() - t0
    by_variant = {}
    for report in reports:
        label = report.run_id.rsplit("-seed", 1)[0]
        by_variant.setdefault(label, []).append(report)
    means = {row["method"]: row["final_accuracy_mean"] for row in table}
    return {"reports": reports, "by_variant": by_variant, "means": means, "elapsed": elapsed}


@pytest.fixture(scope="module")
def user_order_runs():
    """Baseline and full CCS for each of the four user stage orders, seed 0."""
    out = {}
    for order in USER_ORDERS:
        doc = default_doc(order=order)
        doc["ccs"].update(ALL_OFF)
        baseline = run_scenario(parse_config(doc), run_id=f"{order}-baseline")
        doc = default_doc(order=order)
        doc["ccs"].update(FULL)
        full = run_scenario(parse_config(doc), run_id=f"{order}-full")
        out[order] = (baseline, full)
    return out


# -- criterion 1: gradient oracle ------------------------------------------------


def test_c01_gradients_match_finite_differences_for_every_loss():
    """CE and CE+{MSE,KLD,L1} distill gradients vs central differences,
    h=1e-5, per-parameter relative error <= 1e-4, in under 10 seconds."""
    started = time.perf_counter()
    cfg = ModelConfig(hidden_dims=(5,), lr=0.1, batch_size=4, epochs_per_stage=1)
    teacher_model = IncModel.init(cfg, 6, 3, numkit.make_rng(31))
    student_base = teacher_model.copy()
    student_base.expand_head(2, numkit.make_rng(32))
    teacher = teacher_model.snapshot()
    rng = numkit.make_rng(33)
    X = rng.normal(size=(4, 6))
    y = np.array([0, 3, 4, 1])
    h = 1e-5

    def total_loss(model, alpha, distill_loss):
        logits, _ = model.forward_batch(X)
        ce = np.mean([oracle.cross_entropy(logits[i], int(y[i])) for i in range(4)])
        if alpha == 0.0:
            return ce
        t_logits, _ = teacher.forward_batch(X)
        s = logits[:, : t_logits.shape[1]]
        if distill_loss == "mse":
            d = np.mean([oracle.mse(s[i], t_logits[i]) for i in range(4)])
        elif distill_loss == "l1":
            d = np.mean([oracle.l1_loss(s[i], t_logits[i]) for i in range(4)])
        else:
            d = np.mean(
                [
                    oracle.kl_divergence(oracle.softmax(t_logits[i]), oracle.softmax(s[i]))
                    for i in range(4)
                ]
            )
        return (1 - alpha) * ce + alpha * d

    for config_name, alpha, distill_loss in [
        ("ce", 0.0, "mse"),
        *[(f"ce+{name}", 0.06, name) for name in DISTILL_LOSSES],
    ]:
        student = student_base.copy()
        stepped = student.copy()
        stepped.config = replace(cfg, lr=1.0)
        stepped.backward_and_step(
            X,
            y,
            t_logits=teacher.forward_batch(X)[0] if alpha > 0 else None,
            alpha=alpha,
            distill_loss=distill_loss,
        )
        analytic = (
            [w - sw for w, sw in zip(student.weights, stepped.weights)]
            + [b - sb for b, sb in zip(student.biases, stepped.biases)]
            + [student.head - stepped.head]
        )
        params = list(student.weights) + list(student.biases) + [student.head]
        for arr, grad in zip(params, analytic):
            flat = arr.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = total_loss(student, alpha, distill_loss)
                flat[i] = keep - h
                down = total_loss(student, alpha, distill_loss)
                flat[i] = keep
                fd = (up - down) / (2 * h)
                a = grad.reshape(-1)[i]
                rel = abs(fd - a) / max(abs(fd), abs(a), 1e-6)
                assert rel <= 1e-4, f"{config_name}: rel err {rel:.2e} at parameter {i}"

    assert time.perf_counter() - started < 10.0


# -- criterion 2: herding oracle ---------------------------------------------------


def test_c02_herding_equals_brute_force_on_50_random_instances():
    """50 random (model, class) instances with up to 500 samples: exact index
    agreement with a normalize->embed->mean->sort oracle, under 30 seconds."""
    started = time.perf_counter()
    rng = numkit.make_rng(77)
    hidden_options = [(), (8,), (10, 6)]
    for trial in range(50):
        dim = int(rng.integers(2, 9))
        hidden = hidden_options[int(rng.integers(0, len(hidden_options)))]
        n = int(rng.integers(1, 501))
        k = int(rng.integers(1, 8))
        model = IncModel.init(
            ModelConfig(hidden_dims=hidden), dim, 3, numkit.make_rng(1000 + trial)
        )
        samples = rng.normal(size=(n, dim))

        _, embeddings = model.forward_batch(samples)
        normalized = np.array(
            [e / np.sqrt(np.sum(e * e)) if np.sum(e * e) > 0 else e for e in embeddings]
        )
        center = normalized.mean(axis=0)
        distances = [float(np.sqrt(np.sum((row - center) ** 2))) for row in normalized]
        oracle = sorted(range(n), key=lambda i: (distances[i], i))[: min(k, n)]

        assert herding_select(model, samples, k) == oracle, f"instance {trial} diverged"
    assert time.perf_counter() - started < 30.0


# -- criterion 3: weight-aligning post-conditions --------------------------------------


def test_c03_weight_align_postconditions_on_100_random_heads():
    """u,v in [1,30]: mean new-row norm equals mean old-row norm within 1e-9,
    old rows bit-identical; the (2,2)/(4,4) hand case gives gamma = 0.5."""
    rng = numkit.make_rng(88)
    for trial in range(100):
        u = int(rng.integers(1, 31))
        v = int(rng.integers(1, 31))
        dim = int(rng.integers(1, 17))
        norm = "l2" if trial % 2 == 0 else "l1"
        head = rng.normal(size=(u + v, dim)) * rng.uniform(0.1, 5.0)
        aligned = weight_align(head, u=u, norm=norm)

        npt.assert_array_equal(aligned[:u], head[:u])
        if norm == "l2":
            norms = np.sqrt((aligned**2).sum(axis=1))
        else:
            norms = np.abs(aligned).sum(axis=1)
        assert abs(norms[:u].mean() - norms[u:].mean()) <= 1e-9, f"head {trial} unbalanced"

    hand = np.array([[2.0, 0.0], [0.0, 2.0], [4.0, 0.0], [0.0, 4.0]])
    aligned = weight_align(hand, u=2, norm="l2")
    npt.assert_array_equal(aligned[2:], hand[2:] * 0.5)


# -- criterion 4: reduction to baseline ----------------------------------------------


def test_c04_all_toggles_off_is_bit_identical_to_plain_fine_tuning():
    """ccs_stage_update with everything disabled must equal an independently
    written fine-tuning loop over the same seeded batch stream, bit for bit."""
    cfg = ModelConfig(hidden_dims=(8,), lr=0.1, batch_size=16, epochs_per_stage=6)
    prev = IncModel.init(cfg, 5, 4, numkit.make_rng(41))
    rng_data = numkit.make_rng(42)
    base = LabeledDataset(rng_data.normal(size=(40, 5)), np.repeat(np.arange(4), 10))
    store = build_exemplar_store(prev, base, k=1)  # must be ignored when toggled off
    new_data = LabeledDataset(
        rng_data.normal(size=(40, 5)), np.repeat([4, 5], 20), class_ids=(4, 5)
    )

    ctx = CcsSettings(**ALL_OFF)
    model, _, _ = ccs_stage_update(prev, new_data, store, ctx, numkit.make_rng(43))

    rng = numkit.make_rng(43)
    weights = [w.copy() for w in prev.weights]
    biases = [b.copy() for b in prev.biases]
    bound = np.sqrt(6.0 / prev.embed_dim)
    head = np.vstack([prev.head, rng.uniform(-bound, bound, size=(2, prev.embed_dim))])
    for _ in range(cfg.epochs_per_stage):
        order = rng.permutation(new_data.n_samples)
        for start in range(0, new_data.n_samples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            X, y = new_data.features[idx], new_data.labels[idx]
            acts, pres = [X], []
            a = X
            for w, b in zip(weights, biases):
                z = a @ w.T + b
                a = np.maximum(z, 0.0)
                pres.append(z)
                acts.append(a)
            logits = a @ head.T
            shifted = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
            grad = probs
            grad[np.arange(len(y)), y] -= 1.0
            grad /= len(y)
            d_act = grad @ head
            head = head - cfg.lr * (grad.T @ acts[-1])
            for k in range(len(weights) - 1, -1, -1):
                d_pre = d_act * (pres[k] > 0)
                d_act = d_pre @ weights[k]
                weights[k] = weights[k] - cfg.lr * (d_pre.T @ acts[k])
                biases[k] = biases[k] - cfg.lr * d_pre.sum(axis=0)

    npt.assert_array_equal(model.head, head)
    for got, want in zip(model.weights, weights):
        npt.assert_array_equal(got, want)
    for got, want in zip(model.biases, biases):
        npt.assert_array_equal(got, want)


# -- criterion 5: forgetting reproduction -----------------------------------------------


def test_c05_baseline_collapses_and_full_ccs_at_least_doubles_it(component_runs):
    """Per seed: baseline group-0 accuracy at the final stage sits near chance
    (< 1/55 + 0.15) while full CCS overall is >= 2x the baseline overall."""
    assert component_runs["elapsed"] < 600.0
    baselines = component_runs["by_variant"]["baseline"]
    fulls = component_runs["by_variant"]["E+KD+WA"]
    assert len(baselines) == 3 and len(fulls) == 3
    for baseline, full in zip(baselines, fulls):
        group0_final = baseline.final.per_group_accuracy[0]
        assert group0_final < 1 / 55 + 0.15, f"{baseline.run_id}: group-0 at {group0_final:.3f}"
        assert full.final.accuracy >= 2 * baseline.final.accuracy, (
            f"{full.run_id}: {full.final.accuracy:.3f} vs baseline {baseline.final.accuracy:.3f}"
        )


# -- criterion 6: ablation ordering ---------------------------------------------------


def test_c06_component_ablation_reproduces_the_published_ordering(component_runs):
    """3-seed means: full >= max(E+KD, E+WA, E) - 0.02, and every variant
    with exemplars >= (KD+WA without exemplars) + 0.05."""
    means = component_runs["means"]
    full = means["E+KD+WA"]
    assert full >= max(means["E+KD"], means["E+WA"], means["E"]) - 0.02
    for label in ("E", "E+KD", "E+WA", "E+KD+WA"):
        assert means[label] >= means["KD+WA"] + 0.05, (
            f"{label} at {means[label]:.3f} vs KD+WA {means['KD+WA']:.3f}"
        )


# -- criterion 7: ACCN trend -----------------------------------------------------------


def test_c07_full_ccs_accn_rises_strictly_and_ideal_curve_is_exact(component_runs):
    """Full-CCS ACCN strictly increases across the five stages in each of the
    three seeds; the emitted ideal curve equals cumulative N exactly."""
    fulls = component_runs["by_variant"]["E+KD+WA"]
    assert len(fulls) == 3
    for report in fulls:
        accns = [stage.accn for stage in report.stage_reports]
        assert all(b > a for a, b in zip(accns, accns[1:])), f"{report.run_id}: {accns}"
        assert report.ideal_accn == [15, 25, 35, 45, 55]
        assert report.ideal_accn == list(np.cumsum([len(GROUPS[g]) for g in USER_ORDERS["user1"]]))


# -- criterion 8: sequence robustness -----------------------------------------------------


def test_c08_all_four_user_orders_complete_and_full_beats_baseline(user_order_runs):
    """Each of the four user stage orders runs to completion, and full CCS
    beats the baseline's final overall accuracy in every order."""
    assert set(user_order_runs) == set(USER_ORDERS)
    for order, (baseline, full) in user_order_runs.items():
        assert [r.n_classes for r in baseline.stage_reports] == [15, 25, 35, 45, 55]
        assert [r.n_classes for r in full.stage_reports] == [15, 25, 35, 45, 55]
        assert full.final.accuracy > baseline.final.accuracy, (
            f"{order}: full {full.final.accuracy:.3f} <= baseline {baseline.final.accuracy:.3f}"
        )


# -- criterion 9: determinism ---------------------------------------------------------------


def test_c09_identical_config_and_seed_give_byte_identical_reports(tmp_path):
    """Two separate CLI invocations of the same config produce byte-identical
    report JSON files."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(default_doc(seed=4)))
    outputs = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "inkrementa.cli",
                "run",
                "--config",
                str(config_path),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "run-seed4.json").read_bytes())
    assert outputs[0] == outputs[1]


# -- criterion 10: ACCN arithmetic -------------------------------------------------------------


def test_c10_accn_equals_n_times_accuracy_everywhere(component_runs, user_order_runs):
    """|ACCN - N x accuracy| <= 1e-12 on every emitted StageReport, and the
    N=25, accuracy=0.5856 spot value comes out at 14.64."""
    reports = list(component_runs["reports"])
    for baseline, full in user_order_runs.values():
        reports += [baseline, full]
    checked = 0
    for report in reports:
        for stage in report.stage_reports:
            assert abs(stage.accn - stage.n_classes * stage.accuracy) <= 1e-12
            checked += 1
    assert checked == (18 + 8) * 5
    assert abs(accn(25, 0.5856) - 14.64) <= 1e-12


# -- criterion 11: the components matter on a harder corpus --------------------------------------


def test_c11_distillation_and_weight_aligning_together_beat_exemplars_alone():
    """At stddev 5.0 (k = 1) exemplars alone no longer saturate: per seed
    0/1/2, full CCS final accuracy >= E's + 0.02. Distillation alone and weight
    aligning alone each fall below E here; only together do they raise it."""
    doc = default_doc()
    doc["data"]["synthetic"]["stddev"] = 5.0
    matrix = [entry for entry in ABLATION_PRESETS["components"] if entry[0] in ("E", "E+KD+WA")]
    reports, _ = run_ablation(parse_config(doc), matrix, seeds=3)
    exemplars, full = reports[:3], reports[3:]
    for e, ccs in zip(exemplars, full):
        gap = ccs.final.accuracy - e.final.accuracy
        assert gap >= 0.02, f"{ccs.run_id}: {ccs.final.accuracy:.4f} vs E {e.final.accuracy:.4f}"
