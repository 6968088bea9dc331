#!/usr/bin/env bash
# Determinism self-check across processes: two runs of one seed must print
# the same fingerprint (every count of the replay), and the next seed must
# print another. Run from the repository root:
#
#   bash perfbench/selfcheck.sh du_backlog 1
set -euo pipefail
workload="${1:?usage: selfcheck.sh <workload> [seed]}"
seed="${2:-1}"
fingerprint() {
    bash "$(dirname "$0")/run.sh" --workload "$workload" --seed "$1" --seconds 1 --trace 0 \
        | grep "^$workload fingerprint:"
}
a="$(fingerprint "$seed")"
b="$(fingerprint "$seed")"
c="$(fingerprint "$((seed + 1))")"
echo "$a"
echo "$c"
if [[ "$a" != "$b" ]]; then
    echo "selfcheck: FAIL: seed $seed gave two fingerprints" >&2
    exit 1
fi
if [[ "$a" == "$c" ]]; then
    echo "selfcheck: FAIL: seeds $seed and $((seed + 1)) gave the same fingerprint" >&2
    exit 1
fi
echo "selfcheck: OK: seed $seed repeats, seed $((seed + 1)) differs"
