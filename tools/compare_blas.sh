#!/usr/bin/env bash
# Compare this tree's reports across OpenBLAS settings, byte for byte.
#
#     tools/compare_blas.sh OUT
#
# With the config of `bench/run.py`'s `scenario_config(3)`, at `batch_size` 32
# (its own) and 2048 (every stage's pool is then a single short batch, and the
# forward passes cross OpenBLAS's threading size), runs `inkrementa run` under
# each BLAS setting:
#   default      the package's own thread policy (one thread), no forced kernel
#   threads-2    OPENBLAS_NUM_THREADS=2
#   Haswell, Sandybridge, Prescott
#                OPENBLAS_CORETYPE forced to that kernel; only on x86-64 with
#                AVX2, where each of them can run (a kernel the CPU lacks may
#                crash, so none is forced elsewhere)
# OUT must be empty or absent; each setting's reports go to OUT/SETTING. Exits 0
# when `diff -r` finds every setting equal to the default.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
if [ -n "$(ls -A "$1" 2>/dev/null)" ]; then
    echo "$0: $1 is not empty" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)

config="$out/config.json"
python -c "import json, sys; sys.path.insert(0, sys.argv[1]); from run import scenario_config; json.dump(scenario_config(3), open(sys.argv[2], 'w'))" \
    "$root/bench" "$config"
python -c "import json, sys; doc = json.load(open(sys.argv[1])); doc['model']['batch_size'] = 2048; json.dump(doc, open(sys.argv[2], 'w'))" \
    "$config" "$out/one-batch-config.json"

settings=(default threads-2)
if [ "$(uname -m)" = x86_64 ] && grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    settings+=(Haswell Sandybridge Prescott)
else
    echo "$0: not x86-64 with AVX2; no kernel is forced" >&2
fi

for setting in "${settings[@]}"; do
    case $setting in
        default) blas=() ;;
        threads-2) blas=(OPENBLAS_NUM_THREADS=2) ;;
        *) blas=(OPENBLAS_CORETYPE="$setting") ;;
    esac
    for batch in 32 2048; do
        cfg=$config
        [ "$batch" = 2048 ] && cfg=$out/one-batch-config.json
        env -u OPENBLAS_NUM_THREADS -u OPENBLAS_CORETYPE "${blas[@]}" PYTHONPATH="$root/src" \
            python -m inkrementa.cli run --config "$cfg" --out "$out/$setting/batch-$batch" >/dev/null
    done
done

status=0
for setting in "${settings[@]:1}"; do
    if diff -r "$out/default" "$out/$setting"; then
        echo "$setting: reports equal the default's"
    else
        echo "$setting: reports DIFFER from the default's"
        status=1
    fi
done
exit $status
