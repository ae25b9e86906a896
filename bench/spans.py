"""Span tracer for one benchmark operation, installed from outside the program.

The tracer wraps the public entry points of each inkrementa layer. A module
that did ``from .model import train_epochs`` holds its own reference to the
function, so patching ``model.train_epochs`` alone would miss its calls: every
function is therefore replaced in each inkrementa module whose namespace binds
it. Methods are replaced once, on their class.

Spans (name, start, end, parent) are kept in memory and written when the
operation ends; ``summarize`` turns them into per-layer counts, total time and
self time (duration minus the time covered by direct child spans).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

SPANS_FILE = "spans.npy"
TRACE_FILE = "trace.json"


def rebind(original, replacement) -> None:
    """Replace ``original`` in every inkrementa module namespace that holds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "inkrementa" or mod_name.startswith("inkrementa."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


class Tracer:
    """In-memory span recorder for a single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.stage0_inputs: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, count=None, before=None):
        """Return ``fn`` recording one span per call.

        ``count(args, kwargs, result)`` adds to the ``<name>.<unit>`` counters
        it returns; ``before(args, kwargs)`` runs before the span opens.
        """
        name_id = self._name_id(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + int(value)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` in every inkrementa module that binds it."""
        original = getattr(module, attr)
        rebind(original, self.wrap(name, original, **hooks))

    def patch_binding(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap one module's binding only (to tell callers of a function apart)."""
        setattr(module, attr, self.wrap(name, getattr(module, attr), **hooks))

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), **hooks))

    def write(self, out_dir: Path) -> None:
        np.save(out_dir / SPANS_FILE, np.array(self.spans, dtype=np.float64).reshape(-1, 4))
        doc = {
            "names": self.names,
            "counts": self.counts,
            "stage0_calls": len(self.stage0_inputs),
            "stage0_distinct": len(set(self.stage0_inputs)),
        }
        (out_dir / TRACE_FILE).write_text(json.dumps(doc), encoding="utf-8")


def _stage0_key(args, kwargs) -> str:
    """Digest of everything stage-0 training depends on: data, weights, rng state."""
    model, features, labels, rng = args[:4]
    h = hashlib.sha256()
    for arr in (features, labels, *model.weights, *model.biases, model.head):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(rng.bit_generator.state).encode())
    h.update(repr(sorted(kwargs.items())).encode())
    return h.hexdigest()


def install(tracer: Tracer) -> None:
    """Wrap the entry points of numkit, model, continual, data and harness."""
    from inkrementa import continual, data, harness, model, numkit

    tracer.patch_function(numkit, "as_matrix", "numkit.as_matrix")
    tracer.patch_function(numkit, "softmax_rows", "numkit.softmax_rows")

    tracer.patch_method(model.IncModel, "backward_and_step", "model.backward_and_step")
    tracer.patch_method(model.IncModel, "forward_batch", "model.forward_batch")
    tracer.patch_method(model.TeacherSnapshot, "forward_batch", "model.teacher_forward")

    def sgd_rows(args, kwargs, _):
        epochs = kwargs.get("epochs") or args[0].config.epochs_per_stage
        return {"model.train_epochs.rows": len(args[1]) * epochs}

    tracer.patch_function(model, "train_epochs", "model.train_epochs", count=sgd_rows)
    # The harness binding of train_epochs is stage-0 training; continual's is
    # the incremental stages. The stage-0 span wraps the model-level span.
    tracer.patch_binding(
        harness, "train_epochs", "harness.stage0_train",
        before=lambda args, kwargs: tracer.stage0_inputs.append(_stage0_key(args, kwargs)),
    )

    tracer.patch_function(continual, "ccs_stage_update", "continual.ccs_stage_update")
    tracer.patch_function(
        continual, "herding_select", "continual.herding_select",
        count=lambda args, kwargs, _: {"continual.herding_select.rows": len(args[1])},
    )
    tracer.patch_function(continual, "weight_align", "continual.weight_align")

    # A workload reads either CSV files or the synthetic generator: both are
    # its data source, so every workload reports a nonzero source time.
    tracer.patch_function(
        data, "load_csv", "data.source",
        count=lambda args, kwargs, result: {"data.source.rows": result.n_samples},
    )
    tracer.patch_function(
        data, "generate_synthetic", "data.source",
        count=lambda args, kwargs, result: {"data.source.rows": sum(d.n_samples for d in result)},
    )
    tracer.patch_function(data, "split_stages", "data.split_stages")

    tracer.patch_function(
        harness, "evaluate", "harness.evaluate",
        count=lambda args, kwargs, _: {
            "harness.evaluate.rows": sum(ds.n_samples for _, ds in args[1])
        },
    )
    tracer.patch_method(
        harness.RunReport, "to_json", "harness.report_json",
        count=lambda args, kwargs, result: {"harness.report_json.bytes": len(result.encode())},
    )
    tracer.patch_method(harness.RunReport, "write", "harness.write_outputs")
    tracer.patch_function(harness, "write_summary_csv", "harness.write_outputs")
    tracer.patch_function(harness, "write_comparison_csv", "harness.write_outputs")


def summarize(out_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced operation, from its written spans."""
    doc = json.loads((out_dir / TRACE_FILE).read_text(encoding="utf-8"))
    names = doc["names"]
    spans = np.load(out_dir / SPANS_FILE)
    ids = spans[:, 0].astype(np.int64)
    duration = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(np.int64)

    child_time = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    self_time = duration - child_time
    parent_name = np.where(has_parent, ids[np.maximum(parent, 0)], -1)

    def sel(name: str) -> np.ndarray:
        return ids == names.index(name) if name in names else np.zeros(len(spans), bool)

    def calls(name):
        return int(sel(name).sum())

    def total(name):
        return float(duration[sel(name)].sum())

    def self_s(name):
        return float(self_time[sel(name)].sum())

    counts = doc["counts"]
    teacher = names.index("model.teacher_forward") if "model.teacher_forward" in names else -2
    student_forward = sel("model.forward_batch") & (parent_name != teacher)
    source_s = total("data.source")
    source_rows = counts.get("data.source.rows", 0)
    step_calls = calls("model.backward_and_step")

    return {
        "numkit.as_matrix.calls": calls("numkit.as_matrix"),
        "numkit.as_matrix.s": total("numkit.as_matrix"),
        "numkit.softmax_rows.calls": calls("numkit.softmax_rows"),
        "numkit.softmax_rows.s": total("numkit.softmax_rows"),
        "model.backward_and_step.calls": step_calls,
        "model.backward_and_step.s": total("model.backward_and_step"),
        "model.backward_and_step.self_s": self_s("model.backward_and_step"),
        "model.backward_and_step.us_per_call": (
            1e6 * total("model.backward_and_step") / step_calls if step_calls else 0.0
        ),
        "model.teacher_forward.calls": calls("model.teacher_forward"),
        "model.teacher_forward.s": total("model.teacher_forward"),
        "model.forward_batch.self_s": float(self_time[student_forward].sum()),
        "model.train_epochs.rows": counts.get("model.train_epochs.rows", 0),
        "continual.ccs_stage_update.self_s": self_s("continual.ccs_stage_update"),
        "continual.herding_select.calls": calls("continual.herding_select"),
        "continual.herding_select.rows": counts.get("continual.herding_select.rows", 0),
        "continual.herding_select.s": total("continual.herding_select"),
        "continual.weight_align.s": total("continual.weight_align"),
        "data.source.s": source_s,
        "data.source.rows": source_rows,
        "data.source.rows_per_s": source_rows / source_s if source_s else 0.0,
        "data.split_stages.s": total("data.split_stages"),
        "harness.stage0_train.calls": calls("harness.stage0_train"),
        "harness.stage0_train.s": total("harness.stage0_train"),
        "harness.stage0_train.useful_ratio": (
            doc["stage0_distinct"] / doc["stage0_calls"] if doc["stage0_calls"] else 0.0
        ),
        "harness.evaluate.calls": calls("harness.evaluate"),
        "harness.evaluate.rows": counts.get("harness.evaluate.rows", 0),
        "harness.evaluate.s": total("harness.evaluate"),
        "harness.report_json.s": total("harness.report_json"),
        "harness.report_json.bytes": counts.get("harness.report_json.bytes", 0),
        "harness.write_outputs.s": total("harness.write_outputs"),
    }
