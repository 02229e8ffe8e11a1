#!/usr/bin/env bash
# A/A check: two sets of N (default 5) full runs of this commit, the sets
# alternating in order. Prints, per workload and end-to-end metric, both
# medians, quartiles and spreads and how much worse the second set is;
# fails if any exceeds the metric's bound in BENCHMARK.json.
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --aa "${1:-5}" "${@:2}"
