#!/bin/sh
# abpair.sh — compare two builds of the end-to-end benchmark in
# alternating pairs of runs (EXPERIMENTS.md § Paired A/B runs).
#
# Usage:
#   scripts/abpair.sh PARENT_BIN CHANGE_BIN WORKLOAD FIRST_SEED N
#
# PARENT_BIN and CHANGE_BIN are benchmark binaries built from the two
# trees (cd benchmark && go build -o BIN .). Pair i runs both at seed
# FIRST_SEED+i-1 with --seconds ${ABPAIR_SECONDS:-20} --trace 0; odd
# pairs run the parent first, even pairs the change, so drift in the
# machine's load falls on both sides. For every end-to-end metric the
# benchmark prints, the script lists the per-pair values and reports
# each side's median and interquartile range, the median per-pair
# change and how many pairs the change won (direction from
# BENCHMARK.json).
#
# It exits non-zero if a run fails, reports failed ops, or if a sim_*
# metric (the simulated outcome, which must not depend on the build)
# differs within a pair.
set -eu

if [ $# -ne 5 ]; then
	echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD FIRST_SEED N" >&2
	exit 2
fi
parent=$1
change=$2
workload=$3
seed=$4
pairs=$5
secs=${ABPAIR_SECONDS:-20}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/abpair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

i=1
while [ "$i" -le "$pairs" ]; do
	s=$((seed + i - 1))
	if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
		log="$tmp/$side.$i"
		if ! "$bin" --workload "$workload" --seed "$s" --seconds "$secs" --trace 0 >"$log" 2>&1; then
			echo "abpair: $side run of pair $i (seed $s) failed:" >&2
			cat "$log" >&2
			exit 1
		fi
		# Metric lines read "WORKLOAD NAME VALUE UNIT ..."; the ops line
		# reads "WORKLOAD ops N failed_ops F"; per-run lines are skipped.
		awk -v w="$workload" -v side="$side" -v pair="$i" -v seed="$s" '
			$1 != w || $2 == "run" { next }
			$2 == "ops" { print pair, seed, side, "failed_ops", $5; next }
			NF >= 4 && $3 ~ /^[-+0-9.eE]+$/ { print pair, seed, side, $2, $3 }
		' "$log" >>"$tmp/metrics"
	done
	i=$((i + 1))
done

awk -v pairs="$pairs" '
	# BENCHMARK.json: one end_to_end entry per line, e.g.
	# {"name": "req_per_kref", "unit": "req/kref", "better": "higher", ...}
	FNR == NR {
		if ($0 ~ /"better"/) {
			n = split($0, f, "\"")
			for (k = 1; k < n; k++) {
				if (f[k] == "name") name = f[k + 2]
				if (f[k] == "better") better[name] = f[k + 2]
			}
		}
		next
	}
	{
		pair = $1; side = $3; m = $4
		if (!(m in seen)) { seen[m] = 1; order[++nm] = m }
		val[m, side, pair] = $5
		seedof[pair] = $2
		if (m == "failed_ops" && $5 + 0 != 0) {
			printf "abpair: pair %d %s run reports %s failed ops\n", pair, side, $5
			bad = 1
		}
	}
	function sortn(a, n,   i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	}
	# q-quantile of sorted a[1..n], linear between order statistics.
	function quant(a, n, q,   p, lo) {
		p = 1 + q * (n - 1); lo = int(p)
		if (lo >= n) return a[n]
		return a[lo] + (p - lo) * (a[lo + 1] - a[lo])
	}
	END {
		for (k = 1; k <= nm; k++) {
			m = order[k]
			if (m == "failed_ops") continue
			dir = (m in better) ? better[m] : "unknown"
			printf "%s (%s is better)\n", m, dir
			wins = 0
			for (p = 1; p <= pairs; p++) {
				a = val[m, "parent", p]; b = val[m, "change", p]
				pa[p] = a + 0; ch[p] = b + 0
				gain[p] = (a + 0 != 0) ? (b - a) / a * 100 : 0
				won = (dir == "higher" && b + 0 > a + 0) || (dir == "lower" && b + 0 < a + 0)
				wins += won
				note = won ? "win" : ""
				if (m ~ /^sim_/ && a != b) { note = "DIFFERS"; bad = 1 }
				printf "  pair %d seed %d %s-first: %s -> %s  %+.2f%%  %s\n", p, seedof[p], (p % 2 ? "parent" : "change"), a, b, gain[p], note
			}
			sortn(pa, pairs); sortn(ch, pairs); sortn(gain, pairs)
			printf "  parent median %g [IQR %g-%g]  change median %g [IQR %g-%g]\n", quant(pa, pairs, 0.5), quant(pa, pairs, 0.25), quant(pa, pairs, 0.75), quant(ch, pairs, 0.5), quant(ch, pairs, 0.25), quant(ch, pairs, 0.75)
			printf "  median per-pair change %+.2f%%  wins %d/%d\n", quant(gain, pairs, 0.5), wins, pairs
		}
		exit bad
	}
' "$root/BENCHMARK.json" "$tmp/metrics"
