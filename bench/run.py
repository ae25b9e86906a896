"""inkrementa benchmark: CLI commands end to end, and a traced per-layer run.

    python3 bench/run.py --workload scenario|ablate|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``. Each operation is one real CLI command in a fresh process, run
back to back by this single process (a closed loop with one client) until
``--seconds`` is used up. The config is generated from ``--seed`` before
timing starts; the program only ever receives that file.

``wall_s`` runs from the end of set-up (the CLI's config load) to the exit of
the operation's process; ``cpu_s`` is that process's user plus system CPU time,
set-up included.

With ``--trace 0`` the end-to-end metrics are measured with tracing off. With
``--trace 1`` untraced and traced operations alternate: the traced ones give
the per-layer metrics, and the difference of the two wall-time medians is the
tracing overhead. Every operation's outputs must be byte-identical to the
first one's, and their sha256 must match the value recorded for the seed in
``recorded_outputs.json`` when there is one. Metric names and units are those
declared in ``BENCHMARK.json``. The last stdout line is one JSON object; a
results file with the environment record is written under ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
WORK_DIR = ROOT / ".bench_work"
RECORDED = BENCH_DIR / "recorded_outputs.json"
SPEC = ROOT / "BENCHMARK.json"

# Groups A-E of the default 55-class plan, introduced 15/10/10/10/10.
STAGES = [list(range(0, 15)), *[list(range(s, s + 10)) for s in (15, 25, 35, 45)]]
FULL_CCS = {
    "use_exemplars": True, "use_distillation": True, "use_weight_align": True,
    "distill_loss": "mse", "wa_norm": "l2",
}
ABLATION_VARIANTS = ("baseline", "KD+WA", "E", "E+KD", "E+WA", "E+KD+WA")
ABLATE_SEEDS = 1  # one seed keeps an operation at 6-8 s, so a run holds several

MIN_FINAL_ACCURACY = 0.9  # full E+KD+WA on the scenario stays above this


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cli: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scenario",
            "inkrementa run on the default synthetic scenario: SGD at batch 32 on tiny "
            "matrices is bound by per-call cost, so the model/numkit hot path shows here",
            ("run",),
        ),
        Workload(
            "ablate",
            "inkrementa ablate --preset components: all 6 variants retrain the same "
            "stage 0, so harness orchestration (stage-0 reuse, a pool) shows here",
            ("ablate", "--preset", "components", "--seeds", str(ABLATE_SEEDS)),
        ),
    )
}


def scenario_config(seed: int) -> dict:
    return {
        "seed": seed,
        "data": {
            "synthetic": {
                "num_classes": 55, "input_dim": 8, "train_per_class": 100,
                "test_per_class": 20, "center_scale": 10.0, "stddev": 1.0,
            }
        },
        "stages": STAGES,
        "model": {"hidden_dims": [64, 32], "lr": 0.1, "batch_size": 32, "epochs_per_stage": 30},
        "ccs": {"k": 1, **FULL_CCS},
    }


def expected_outputs(workload: Workload, seed: int) -> list[str]:
    if workload.cli[0] == "ablate":
        return [f"{label}-seed{seed}.json" for label in ABLATION_VARIANTS] + ["summary.csv", "comparison.csv"]
    return [f"run-seed{seed}.json"]


# -- one operation --------------------------------------------------------------


@dataclass
class Op:
    traced: bool
    ok: bool = False
    reason: str = ""
    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float | None = None
    stage_seconds: list[float] = field(default_factory=list)
    peak_rss_mb: float | None = None
    digest: str | None = None
    layers: dict[str, float] | None = None


def digest_outputs(out: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    return h.hexdigest()


def run_op(work: Path, index: int, workload: Workload, seed: int, traced: bool, env: dict) -> tuple[Op, Path]:
    op_dir = work / f"op-{index}"
    op_dir.mkdir()
    record = op_dir / "record.json"
    argv = [
        sys.executable, str(BENCH_DIR / "op.py"), str(record), "1" if traced else "0",
        "--", *workload.cli, "--config", "config.json", "--out", op_dir.name,
    ]
    op = Op(traced=traced)
    with open(op_dir / "stdout.log", "wb") as out, open(op_dir / "stderr.log", "wb") as err:
        cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err)
        try:
            code = proc.wait()
        finally:
            if proc.poll() is None:  # interrupted: leave no operation running
                proc.kill()
                proc.wait()
        t_exit = time.monotonic()
        cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    stderr_tail = (op_dir / "stderr.log").read_text(errors="replace")[-300:]
    if not record.exists():
        op.reason = f"exit code {code}, no record: {stderr_tail}"
        return op, op_dir
    rec = json.loads(record.read_text(encoding="utf-8"))
    if rec["t_setup"] is None:
        op.reason = f"exit code {code} before the config was loaded: {stderr_tail}"
        return op, op_dir
    op.setup_s = rec["t_setup"] - t_spawn
    op.wall_s = t_exit - rec["t_setup"]
    op.cpu_s = sum(getattr(cpu_after, f) - getattr(cpu_before, f) for f in ("ru_utime", "ru_stime"))
    op.stage_seconds = rec["stage_seconds"]
    op.peak_rss_mb = rec["peak_rss_mb"]
    if not Path(rec["package_file"]).is_relative_to(SRC):
        op.reason = f"imported {rec['package_file']}, not the checkout's src/"
    elif code != 0:
        op.reason = f"exit code {code}: {stderr_tail}"
    else:
        missing = [n for n in expected_outputs(workload, seed) if not (op_dir / n).is_file()]
        if missing:
            op.reason = f"missing outputs {missing}"
        else:
            op.digest = digest_outputs(op_dir, expected_outputs(workload, seed))
            op.ok = True
    if traced and op.ok:
        op.layers = {
            **spans.summarize(op_dir),
            "cli.import.s": rec["import_s"],
            "cli.load_config.s": rec["load_config_s"],
        }
    return op, op_dir


def check_reports(workload: Workload, seed: int, out: Path) -> list[str]:
    """Content checks on the first operation's outputs; returns the problems found."""
    problems = []
    sizes = [len(g) for g in STAGES]
    ideal = [sum(sizes[: i + 1]) for i in range(len(sizes))]
    finals = {}
    for name in expected_outputs(workload, seed):
        if not name.endswith(".json"):
            continue
        doc = json.loads((out / name).read_text(encoding="utf-8"))
        stages = doc["stages"]
        if [s["n_classes"] for s in stages] != ideal or doc["ideal_accn"] != ideal:
            problems.append(f"{name}: class counts {[s['n_classes'] for s in stages]} != {ideal}")
        for s in stages:
            if abs(s["accn"] - s["n_classes"] * s["accuracy"]) > 1e-4:
                problems.append(f"{name}: stage {s['stage']} accn != N * accuracy")
        last = stages[-1]
        if (doc["final"]["accuracy"], doc["final"]["accn"]) != (last["accuracy"], last["accn"]):
            problems.append(f"{name}: final block differs from the last stage")
        finals[name.rsplit("-seed", 1)[0]] = doc["final"]
    if workload.cli[0] == "run":
        if finals["run"]["accuracy"] < MIN_FINAL_ACCURACY:
            problems.append(f"final accuracy {finals['run']['accuracy']} < {MIN_FINAL_ACCURACY}")
    else:
        if not finals["E+KD+WA"]["accn"] >= 2 * finals["baseline"]["accn"]:
            problems.append("E+KD+WA final ACCN is not at least twice the baseline's")
        summary_rows = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        comparison_rows = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
        runs = len(ABLATION_VARIANTS) * ABLATE_SEEDS
        if len(summary_rows) != 1 + runs * (len(STAGES) + 1):
            problems.append(f"summary.csv has {len(summary_rows)} lines")
        if len(comparison_rows) != 1 + len(ABLATION_VARIANTS):
            problems.append(f"comparison.csv has {len(comparison_rows)} lines")
    return problems


def final_accn(workload: Workload, seed: int, out: Path) -> float:
    values = [
        json.loads((out / name).read_text(encoding="utf-8"))["final"]["accn"]
        for name in expected_outputs(workload, seed)
        if name.endswith(".json")
    ]
    return statistics.fmean(values)


# -- environment ------------------------------------------------------------------


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    cpu_model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = result.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
    }


# -- a run ----------------------------------------------------------------------------


def with_units(values: dict[str, float | None], declared: list[dict]) -> dict[str, dict]:
    """Attach the units BENCHMARK.json declares; the two name sets must agree."""
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from the declared {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def median(values):
    return statistics.median(values) if values else None


def measure(workload: Workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = WORK_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "config.json").write_text(json.dumps(scenario_config(seed)), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        # Untimed warm-up: compiles bytecode and pages in numpy once.
        subprocess.run([sys.executable, "-c", "import inkrementa.cli"], cwd=work, env=env, check=True)

        ops: list[Op] = []
        problems: list[str] = []
        first: Path | None = None
        digest: str | None = None
        start = time.monotonic()
        while True:
            op, op_dir = run_op(work, len(ops), workload, seed, trace and len(ops) % 2 == 1, env)
            ops.append(op)
            if op.ok and digest is None:
                digest, first = op.digest, work / "first"
                op_dir.rename(first)
                problems = check_reports(workload, seed, first)
            else:
                if op.ok and op.digest != digest:
                    op.ok, op.reason = False, "outputs differ from the first successful operation's"
                shutil.rmtree(op_dir)
            elapsed = time.monotonic() - start
            per_op = elapsed / len(ops)
            if elapsed + per_op > seconds and len(ops) >= (2 if trace else 1):
                break
        accn = final_accn(workload, seed, first) if first is not None else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if not op.ok]
    plain = [op for op in ops if not op.traced and op.ok]
    traced = [op for op in ops if op.traced and op.ok]
    stages = [s for op in plain for s in op.stage_seconds]
    p50, p90 = (float(v) for v in np.percentile(stages, [50, 90])) if stages else (None, None)
    end_to_end = {
        "wall_s": median([op.wall_s for op in plain]),
        "setup_s": median([op.setup_s for op in plain]),
        "cpu_s": median([op.cpu_s for op in plain]),
        "stage_update_s.p50": p50,
        "stage_update_s.p90": p90,
        "peak_rss_mb": median([op.peak_rss_mb for op in plain]),
        "final_accn": accn,
    }
    per_layer = {}
    if traced and plain:
        per_layer = {name: median([op.layers[name] for op in traced]) for name in traced[0].layers}
        traced_wall = median([op.wall_s for op in traced])
        for layer in ("model.backward_and_step", "data.source", "harness.stage0_train"):
            per_layer[f"{layer}.share"] = per_layer[f"{layer}.s"] / traced_wall
        per_layer["trace.overhead_s"] = traced_wall - end_to_end["wall_s"]
        per_layer["trace.overhead_share"] = per_layer["trace.overhead_s"] / end_to_end["wall_s"]
    elif trace:
        per_layer = {m["name"]: None for m in spec["per_layer"]}

    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    expected_digest = recorded.get(workload.name, {}).get(str(seed))
    if expected_digest is None:
        digest_status = "not recorded for this seed"
    elif digest == expected_digest:
        digest_status = "matches the recorded value"
    else:
        digest_status = "DIFFERS from the recorded value"
        if digest is not None:
            problems.append(f"output sha256 {digest} differs from the recorded {expected_digest}")

    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "correct": not failed and not problems and digest is not None,
        "problems": problems,
        "attempted": len(ops),
        "failed": len(failed),
        "fail_share": len(failed) / len(ops),
        "failures": [op.reason for op in failed],
        "stage_samples": len(stages),
        "stage_samples_beyond_p90": sum(s > p90 for s in stages) if stages else 0,
        "output_sha256": digest,
        "output_sha256_status": digest_status,
        "end_to_end": with_units(end_to_end, spec["end_to_end"]),
        "per_layer": with_units(per_layer, spec["per_layer"]) if trace else {},
        "ops": [
            {k: v for k, v in vars(op).items() if k not in ("layers", "stage_seconds")} for op in ops
        ],
    }


def report(result: dict) -> dict:
    """Print the human-readable table; return the contract line's object."""
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    print(f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])}: {result['why']}")
    env = result["environment"]
    print(
        f"   python {env['python']}, numpy {env['numpy']}, {env['blas']['name']} {env['blas']['version']}, "
        f"nproc {env['nproc']}, cpu_count {env['cpu_count']}, {env['cpu_model']}, commit {env['git_commit']}"
    )
    plain_ops = sum(1 for op in result["ops"] if not op["traced"])
    for name, metric in metrics.items():
        shown = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"   {name:<36} {shown:>14} {metric['unit']:<6}")
    print(
        f"   {'fail_share':<36} {result['fail_share']:>14.6g} ratio  "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    print(
        f"   samples: {plain_ops} untraced operation(s), {result['stage_samples']} stage updates, "
        f"{result['stage_samples_beyond_p90']} beyond p90"
    )
    print(f"   output sha256 {result['output_sha256']} ({result['output_sha256_status']})")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")
    for reason in result["failures"]:
        print(f"   OPERATION FAILED: {reason}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "inkrementa" / "__init__.py").is_file():
        print(f"error: {SRC / 'inkrementa'} not found; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS_DIR.mkdir(exist_ok=True)
    for name in names:
        result = measure(WORKLOADS[name], args.seed, seconds, bool(args.trace), spec)
        path = RESULTS_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        line = report(result)
        print(f"   results: {path.relative_to(ROOT)}")
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
