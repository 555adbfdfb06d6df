#!/bin/sh
# Run the benchmark in two checkouts in alternating pairs and summarise.
#
#   scripts/bench_pairs.sh PARENT_CHECKOUT CHILD_CHECKOUT WORKLOAD FIRST_SEED PAIRS SECONDS
#
# Pair i uses seed FIRST_SEED + i for both sides. It runs
# `python3 perfbench/run.py --workload WORKLOAD --seed S --seconds SECONDS --trace 0`
# from the root of each checkout, the parent first on even i and the
# child first on odd i, and keeps each run's last line of standard output,
# the benchmark's JSON result. Each kept line is printed as
# `run <side> <seed> <json>` as soon as the run ends. The last line is a
# JSON summary: per end-to-end metric (as declared in the parent's
# BENCHMARK.json) each side's runs, median and quartiles
# (statistics.quantiles, method='inclusive'), the relative change of the
# medians, and how many pairs the child won and lost; plus each side's
# attempted and failed operations per run. Both checkouts should carry
# the same perfbench/ so that only the program differs.
set -eu

if [ $# -ne 6 ]; then
    echo "usage: $0 PARENT_CHECKOUT CHILD_CHECKOUT WORKLOAD FIRST_SEED PAIRS SECONDS" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
child=$(cd "$2" && pwd)
workload=$3
first_seed=$4
pairs=$5
seconds=$6
lines=$(mktemp)
trap 'rm -f "$lines"' EXIT

run_side() {  # side checkout seed
    line=$(cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
        --seconds "$seconds" --trace 0 | tail -n 1)
    echo "run $1 $3 $line" | tee -a "$lines"
}

i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((first_seed + i))
    if [ $((i % 2)) -eq 0 ]; then
        run_side parent "$parent" "$seed"
        run_side child "$child" "$seed"
    else
        run_side child "$child" "$seed"
        run_side parent "$parent" "$seed"
    fi
    i=$((i + 1))
done

python3 - "$lines" "$parent/BENCHMARK.json" "$workload" <<'EOF'
import json
import statistics
import sys

lines_path, bench_path, workload = sys.argv[1:]
runs = {"parent": {}, "child": {}}
for line in open(lines_path):
    _, side, seed, doc = line.split(" ", 3)
    runs[side][int(seed)] = json.loads(doc)
seeds = sorted(runs["parent"])
summary = {"workload": workload, "seeds": seeds, "metrics": {}}
for side in runs:
    for key in ("attempted", "failed"):
        summary.setdefault(key, {})[side] = [runs[side][s][key] for s in seeds]


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


for spec in json.load(open(bench_path))["end_to_end"]:
    name = spec["name"]
    values = {side: [runs[side][s]["metrics"][name]["value"] for s in seeds] for side in runs}
    sign = 1 if spec["better"] == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(values["parent"], values["child"])]
    parent, child = stats(values["parent"]), stats(values["child"])
    summary["metrics"][name] = {
        "better": spec["better"],
        "parent": parent,
        "child": child,
        "change": child["median"] / parent["median"] - 1 if parent["median"] else None,
        "child_wins": sum(d > 0 for d in diffs),
        "child_losses": sum(d < 0 for d in diffs),
        "median_gap_exceeds_parent_iqr": abs(child["median"] - parent["median"]) > parent["q3"] - parent["q1"],
    }
print(json.dumps(summary, sort_keys=True))
EOF
