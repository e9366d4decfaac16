#!/bin/sh
# Runs every workload once, one after the other, from the repository root:
#   sh perfbench/run_all.sh [SEED] [SECONDS] [TRACE]
# Each workload prints its environment block, its metrics by name with units,
# ops_failed, and its JSON result line.
seed=${1:-1}
seconds=${2:-12}
trace=${3:-0}
status=0
for workload in converge_letters regime_spiked_d8 tail_blocks words_long evolution_step; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" || status=1
done
exit $status
