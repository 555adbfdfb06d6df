#!/bin/sh
# Write the output files a refactor must leave byte-identical.
#
#   scripts/identity_outputs.sh OUTDIR
#
# OUTDIR receives:
#   run/<corpus>.<strategy>.json        `run` over the 3 shipped corpora x 4 strategies
#   sweep/<strategy>.json, .records.jsonl
#                                       gamma sweep 2..8 with --records-out on
#                                       redundant_2turn, for copy and copy+specdec
#   sweep/copy.csv                      the copy gamma sweep again, as `--format csv`
#   train/lm.json                       `train-lm` dump of redundant_2turn
#   train/novel.copy+specdec.json       a copy+specdec run on novel_2turn with
#                                       --model-path set to that dump
#   train/lm3.json                      `train-lm --order 3` dump of redundant_2turn
#   train/redundant.lm3.copy+specdec.json
#                                       a copy+specdec run on redundant_2turn with
#                                       --model-path set to the order-3 dump
#   cost_index/<corpus>.<strategy>.json `run --cost-index 0.5`, every corpus and strategy
#   skipgram/redundant_2turn.json       `skipgram --gammas 2,3 --epochs 1 --dim 8` on redundant_2turn
#   demos/01_copy_walkthrough.txt       the stdout of demo 01, the attempt-by-attempt walkthrough
#
# Run it in two checkouts and compare with `diff -r OUT_A OUT_B`. The
# code comes from the checkout holding this script (its `src/`), the
# corpora from its `data/`. Commands run from the checkout's root, where
# the relative corpus paths below resolve. Metric files name the corpus
# by its fingerprint, not its path, so where a checkout lives does not
# change them.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1/run" "$1/sweep" "$1/train" "$1/cost_index" "$1/skipgram" "$1/demos"
out=$(cd "$1" && pwd)
cd "$root"

log=$(mktemp)
trap 'rm -f "$log"' EXIT

# stderr carries wall times; show it only when a command fails
copyspec() {
    if ! PYTHONPATH=src python3 -m copyspec.cli "$@" 2>"$log"; then
        cat "$log" >&2
        echo "failed: copyspec $*" >&2
        exit 1
    fi
}

corpora="redundant_2turn novel_2turn selfcorrect_3turn"
strategies="baseline copy specdec copy+specdec"

for corpus in $corpora; do
    for strategy in $strategies; do
        copyspec run --corpus "data/$corpus.jsonl" --strategy "$strategy" \
            --out "$out/run/$corpus.$strategy.json"
        copyspec run --corpus "data/$corpus.jsonl" --strategy "$strategy" --cost-index 0.5 \
            --out "$out/cost_index/$corpus.$strategy.json"
    done
done

for strategy in copy copy+specdec; do
    copyspec sweep --corpus "data/redundant_2turn.jsonl" --strategy "$strategy" \
        --axis gamma --values 2,3,4,5,6,7,8 \
        --out "$out/sweep/$strategy.json" --records-out "$out/sweep/$strategy.records.jsonl"
done
copyspec sweep --corpus "data/redundant_2turn.jsonl" --strategy copy \
    --axis gamma --values 2,3,4,5,6,7,8 --format csv --out "$out/sweep/copy.csv"

copyspec train-lm --corpus "data/redundant_2turn.jsonl" --out "$out/train/lm.json"
copyspec run --corpus "data/novel_2turn.jsonl" --strategy copy+specdec \
    --model-path "$out/train/lm.json" --out "$out/train/novel.copy+specdec.json"
copyspec train-lm --corpus "data/redundant_2turn.jsonl" --order 3 --out "$out/train/lm3.json"
copyspec run --corpus "data/redundant_2turn.jsonl" --strategy copy+specdec \
    --model-path "$out/train/lm3.json" --out "$out/train/redundant.lm3.copy+specdec.json"

copyspec skipgram --corpus "data/redundant_2turn.jsonl" --gammas 2,3 --epochs 1 --dim 8 \
    --out "$out/skipgram/redundant_2turn.json"

if ! PYTHONPATH=src python3 demos/01_copy_walkthrough.py >"$out/demos/01_copy_walkthrough.txt" 2>"$log"; then
    cat "$log" >&2
    echo "failed: demos/01_copy_walkthrough.py" >&2
    exit 1
fi

echo "wrote $(find "$out" -type f | wc -l) files to $out"
