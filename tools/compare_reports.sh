#!/usr/bin/env bash
# Compare report trees byte for byte: across OpenBLAS settings, and with a base.
#
#     tools/compare_reports.sh OUT [BASE_TREE]
#
# Every run uses `bench/run.py`'s `scenario_config(3)` or a config derived from
# it. OUT must be empty or absent. Prints "NAME: equal", or the diff and
# "NAME: DIFFER", for each comparison; exits 0 only when every one is equal.
#
# BLAS: this tree's `inkrementa run` at `batch_size` 32 and 2048 (one short
# batch per stage pool; the forward passes cross OpenBLAS's threading size)
# goes to OUT/blas/SETTING under each setting, and each is compared with default:
#   default      the package's thread policy (one thread), no forced kernel
#   threads-2    OPENBLAS_NUM_THREADS=2
#   Haswell, Sandybridge, Prescott
#                OPENBLAS_CORETYPE forced; only on x86-64 with AVX2, where each
#                can run (a kernel the CPU lacks may crash)
# These runs distill with MSE. Byte identity holds per CPU kernel, and MSE is
# what agrees across kernels: with OpenBLAS 0.3.31 on a `SkylakeX` CPU, the
# `losses` preset's L1 reports differ from the forced kernels' in 28-29 of 30
# stage-3 and stage-4 epoch losses (up to 2.1e-4; every accuracy is equal).
#
# Base, with BASE_TREE (a source checkout, such as the parent commit's): head
# (this tree) and base each run the three ablation presets at `--seeds 2`, a
# `run` from CSV files without stage-1 class 15's train rows (its test rows
# stay), a `run` at `batch_size` 2048, a linear (`hidden_dims` []) `run`, and
# `report` over all of them, into OUT/head and OUT/base.
set -euo pipefail

if [ "$#" -lt 1 ] || [ "$#" -gt 2 ]; then
    echo "usage: $0 OUT [BASE_TREE]" >&2
    exit 2
fi
if [ -n "$(ls -A "$1" 2>/dev/null)" ]; then
    echo "$0: $1 is not empty" >&2
    exit 2
fi
base=
[ "$#" = 2 ] && base=$(cd "$2" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)

cli() {  # cli TREE [VAR=VALUE...] -- ARGS...: TREE's inkrementa command line, no inherited OpenBLAS setting
    local tree=$1 vars=()
    shift
    while [ "$1" != -- ]; do vars+=("$1"); shift; done
    shift
    env -u OPENBLAS_NUM_THREADS -u OPENBLAS_CORETYPE "${vars[@]}" PYTHONPATH="$tree/src" \
        python -c "import sys; from inkrementa.cli import main; sys.exit(main(sys.argv[1:]))" "$@" >/dev/null
}

status=0
same() {  # same NAME A B: diff two report trees; a difference is recorded and the script goes on
    if diff -r "$2" "$3"; then echo "$1: equal"; else echo "$1: DIFFER"; status=1; fi
}

python - "$head/bench" "$out" <<'EOF'
import json, sys
sys.path.insert(0, sys.argv[1])
from run import scenario_config
out = sys.argv[2]
docs = {name: scenario_config(3) for name in ("scenario", "one-batch", "linear", "csv")}
docs["one-batch"]["model"]["batch_size"] = 2048
docs["linear"]["model"]["hidden_dims"] = []
docs["csv"]["data"] = {"csv": {"train": f"{out}/csv-data/train-without-15.csv", "test": f"{out}/csv-data/test.csv"}}
for name, doc in docs.items():
    json.dump(doc, open(f"{out}/{name}.json", "w"))
EOF

settings=(default threads-2)
if [ "$(uname -m)" = x86_64 ] && grep -qw avx2 /proc/cpuinfo 2>/dev/null; then settings+=(Haswell Sandybridge Prescott)
else echo "$0: not x86-64 with AVX2; no kernel is forced" >&2; fi
for setting in "${settings[@]}"; do
    case $setting in
        default) blas=() ;;
        threads-2) blas=(OPENBLAS_NUM_THREADS=2) ;;
        *) blas=(OPENBLAS_CORETYPE="$setting") ;;
    esac
    cli "$head" "${blas[@]}" -- run --config "$out/scenario.json" --out "$out/blas/$setting/batch-32"
    cli "$head" "${blas[@]}" -- run --config "$out/one-batch.json" --out "$out/blas/$setting/batch-2048"
done
for setting in "${settings[@]:1}"; do
    same "blas $setting" "$out/blas/default" "$out/blas/$setting"
done

if [ -n "$base" ]; then
    cli "$head" -- gen-data --config "$out/scenario.json" --out "$out/csv-data"
    grep -v '^15,' "$out/csv-data/train.csv" >"$out/csv-data/train-without-15.csv"
    for side in head base; do
        tree=$head
        [ "$side" = base ] && tree=$base
        for preset in components losses norms; do
            cli "$tree" -- ablate --config "$out/scenario.json" --preset "$preset" --seeds 2 --out "$out/$side/$preset"
        done
        for run in csv one-batch linear; do
            cli "$tree" -- run --config "$out/$run.json" --out "$out/$side/$run"
        done
        # the base's report does not create directories, so write into one that exists
        cli "$tree" -- report "$out/$side"/{components,losses,norms,csv,one-batch,linear}/*.json --out "$out/$side/report.csv"
    done
    same base "$out/base" "$out/head"
fi
exit $status
