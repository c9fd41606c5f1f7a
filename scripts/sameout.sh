#!/bin/sh
# sameout.sh — check that two sorabench builds produce byte-identical
# output (EXPERIMENTS.md § Byte-identity of two builds).
#
# Usage:
#   scripts/sameout.sh PARENT_SORABENCH CHANGE_SORABENCH
#
# PARENT_SORABENCH and CHANGE_SORABENCH are sorabench binaries built
# from the two trees (go build -o BIN ./cmd/sorabench). Each binary runs
# two command sets with -quiet -telemetry-dir -timeline -out:
#
#   all:    -exp all -scale 0.1 -seed 1
#           every experiment; at this scale no controller gets past its
#           30 s warm-up, so it covers the wiring but not the decisions.
#   ctrl:   -exp fig12,chaos,ctrlplane -scale 0.5 -seed 5
#           runs long enough for the controllers to decide.
#
# The script compares stdout with cmp and the telemetry, timeline and
# CSV trees with diff -r, and exits non-zero on any difference.
# Diagnostics (wall time, events/s) go to stderr and are not compared.
set -eu

if [ $# -ne 2 ]; then
	echo "usage: $0 PARENT_SORABENCH CHANGE_SORABENCH" >&2
	exit 2
fi
parent=$1
change=$2
tmp=$(mktemp -d "${TMPDIR:-/tmp}/sameout.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

status=0
for set in all ctrl; do
	case $set in
	all) args="-exp all -scale 0.1 -seed 1" ;;
	ctrl) args="-exp fig12,chaos,ctrlplane -scale 0.5 -seed 5" ;;
	esac
	for side in parent change; do
		if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
		d="$tmp/$set/$side"
		mkdir -p "$d"
		# shellcheck disable=SC2086 # args is a word list on purpose
		if ! "$bin" $args -quiet -telemetry-dir "$d/tel" -timeline "$d/tl" -out "$d/csv" \
			>"$d/stdout" 2>"$d/stderr"; then
			echo "sameout: $side run of set $set failed:" >&2
			cat "$d/stderr" >&2
			exit 1
		fi
	done
	if cmp -s "$tmp/$set/parent/stdout" "$tmp/$set/change/stdout"; then
		echo "sameout: $set: stdout identical"
	else
		echo "sameout: $set: stdout differs"
		diff "$tmp/$set/parent/stdout" "$tmp/$set/change/stdout" | head -20
		status=1
	fi
	for tree in tel tl csv; do
		if diff -r "$tmp/$set/parent/$tree" "$tmp/$set/change/$tree" >"$tmp/$set/$tree.diff"; then
			echo "sameout: $set: $tree identical ($(find "$tmp/$set/change/$tree" -type f | wc -l) files)"
		else
			echo "sameout: $set: $tree differs"
			head -20 "$tmp/$set/$tree.diff"
			status=1
		fi
	done
done
exit $status
