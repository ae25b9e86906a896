#!/usr/bin/env bash
# Compare this tree's reports with those of a base tree, byte for byte.
#
#     tools/compare_with_base.sh BASE_TREE OUT
#
# BASE_TREE is a source checkout of the base (for example the parent commit);
# this script's own checkout is the head. With the config of
# `bench/run.py`'s `scenario_config(3)`, each side runs every ablation preset
# (`components`, `losses`, `norms`) at `--seeds 2`, one `run` from CSV files
# in which a stage-1 class (id 15) has test rows but no train rows, and
# `report` over all of those reports. OUT must be empty or absent; the outputs
# go to OUT/base and OUT/head. Exits 0 when `diff -r` finds the two sides equal.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 BASE_TREE OUT" >&2
    exit 2
fi
if [ -n "$(ls -A "$2" 2>/dev/null)" ]; then
    echo "$0: $2 is not empty" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

cli() {  # cli TREE ARGS...: the inkrementa command line of TREE's source
    local tree=$1
    shift
    PYTHONPATH="$tree/src" python -c "import sys; from inkrementa.cli import main; sys.exit(main(sys.argv[1:]))" "$@"
}

config="$out/config.json"
python -c "import json, sys; sys.path.insert(0, sys.argv[1]); from run import scenario_config; json.dump(scenario_config(3), open(sys.argv[2], 'w'))" \
    "$head/bench" "$config"
data="$out/csv-data"
cli "$head" gen-data --config "$config" --out "$data"
python -c "import sys; lines = open(sys.argv[1]).readlines(); open(sys.argv[1], 'w').writelines(l for l in lines if not l.startswith('15,'))" \
    "$data/train.csv"
python -c "import json, sys; doc = json.load(open(sys.argv[1])); doc['data'] = {'csv': {'train': sys.argv[2] + '/train.csv', 'test': sys.argv[2] + '/test.csv'}}; json.dump(doc, open(sys.argv[3], 'w'))" \
    "$config" "$data" "$out/csv-config.json"

for side in head base; do
    tree=$head
    [ "$side" = base ] && tree=$base
    for preset in components losses norms; do
        cli "$tree" ablate --config "$config" --preset "$preset" --seeds 2 --out "$out/$side/$preset"
    done
    cli "$tree" run --config "$out/csv-config.json" --out "$out/$side/csv"
    # the base's report does not create directories, so write into one that exists
    cli "$tree" report "$out/$side"/{components,losses,norms,csv}/*.json --out "$out/$side/report.csv"
done
diff -r "$out/base" "$out/head"
