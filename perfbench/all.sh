#!/bin/sh
# Run every workload listed in BENCHMARK.json once, one after the other.
#   sh perfbench/all.sh [SEED] [SECONDS] [TRACE]
# SECONDS defaults to run_seconds in BENCHMARK.json. Exits non-zero if any
# workload's run failed.
cd "$(dirname "$0")/.." || exit 2
status=0
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    python3 perfbench/run.py --workload "$w" --seed "${1:-1}" --seconds "$seconds" --trace "${3:-0}" || status=1
done
exit $status
