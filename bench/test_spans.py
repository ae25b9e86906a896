"""Exact-count self-test of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_spans.py

Runs the ``scenario`` operation traced at seed 0, twice, each in a fresh
process. The call counts must repeat exactly and match the workload's
arithmetic, so a tracer that misses a module's binding or counts a nested call
twice fails here. The step counts follow from the plan: stage 0 trains 1,500
rows in 47 batches of 32, and stages 1-4 train 1,000 new rows plus 15, 25,
35 and 45 exemplars in 32, 33, 33 and 33 batches, each for 30 epochs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

SGD_STEPS = 30 * (47 + 32 + 33 + 33 + 33)
TEACHER_FORWARDS = SGD_STEPS - 30 * 47
SGD_ROWS = 30 * (1500 + 1015 + 1025 + 1035 + 1045)
EXPECTED = {
    "model.backward_and_step.calls": SGD_STEPS,  # 5,340
    "model.teacher_forward.calls": TEACHER_FORWARDS,  # 3,930
    # one per step, one per softmax, one per teacher forward, plus 166
    # validations in data handling, herding, evaluation and weight aligning
    "numkit.as_matrix.calls": 14_776,
    "continual.herding_select.calls": 55,  # one per class at k=1
    "harness.evaluate.calls": 5,  # one per stage
    "harness.stage0_train.calls": 1,
    # train_epochs is bound by name in harness and continual: both must be seen
    "model.train_epochs.rows": SGD_ROWS,  # 168,600
}


def traced_counts(work: Path, index: int) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    op, op_dir = run.run_op(work, index, run.WORKLOADS["scenario"], 0, True, env)
    assert op.ok, op.reason
    return {name: op.layers[name] for name in EXPECTED}


@pytest.mark.skipif(not (run.SRC / "inkrementa").is_dir(), reason="needs the package source")
def test_traced_scenario_counts_repeat_exactly(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(run.scenario_config(0)), encoding="utf-8")
    first = traced_counts(tmp_path, 0)
    second = traced_counts(tmp_path, 1)
    assert first == EXPECTED
    assert second == first


def test_self_time_subtracts_direct_children_once(tmp_path):
    """A teacher's inner forward pass counts toward the teacher, not the student."""
    tracer = spans.Tracer()
    validate = tracer.wrap("numkit.as_matrix", lambda: sum(range(20_000)))
    forward = tracer.wrap("model.forward_batch", lambda: validate())
    teacher = tracer.wrap("model.teacher_forward", lambda: forward())
    step = tracer.wrap("model.backward_and_step", lambda: (forward(), teacher()))
    step()
    tracer.write(tmp_path)
    summary = spans.summarize(tmp_path)

    # spans in opening order: step, forward, validate, teacher, forward, validate
    rows = np.load(tmp_path / spans.SPANS_FILE)
    d = rows[:, 2] - rows[:, 1]
    assert rows[:, 3].tolist() == [-1, 0, 1, 0, 3, 4]
    assert summary["model.backward_and_step.self_s"] == pytest.approx(d[0] - d[1] - d[3])
    assert summary["model.forward_batch.self_s"] == pytest.approx(d[1] - d[2])
    assert summary["model.teacher_forward.s"] == pytest.approx(d[3])
    assert summary["numkit.as_matrix.calls"] == 2
    assert summary["numkit.as_matrix.s"] == pytest.approx(d[2] + d[5])
