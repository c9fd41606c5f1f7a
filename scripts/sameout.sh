#!/bin/sh
# sameout.sh — check that two builds produce byte-identical output
# (EXPERIMENTS.md § Byte-identity of two builds).
#
# Usage:
#   scripts/sameout.sh PARENT_SORABENCH CHANGE_SORABENCH PARENT_SIMRUN CHANGE_SIMRUN
#
# The four binaries are sorabench and simrun built from the two trees
# (go build -o BIN ./cmd/sorabench, go build -o BIN ./cmd/simrun). Each
# sorabench runs three command sets with -quiet -telemetry-dir DIR
# -timeline DIR/tl -out (timelines under the telemetry directory, so the
# manifests there name every artifact):
#
#   all:    -exp all -scale 0.1 -seed 1
#           every experiment; at this scale no controller gets past its
#           30 s warm-up, so it covers the wiring but not the decisions.
#   ctrl:   -exp fig12,chaos,ctrlplane -scale 0.5 -seed 5
#           runs long enough for the controllers to decide.
#   decide: -exp table3,ablation-model,ext-unified -scale 0.3 -seed 5
#           reaches the apply-knee branch of ConScale's SCT model, the
#           unified controller and the VPA-driven Sora, which the two
#           sets above rarely or never do.
#
# Each simrun runs one more set with -profile -trace-archive
# -telemetry-dir:
#
#   simrun: -app sockshop -fault-plan combo -seed 5 -duration 60s
#           the combo plan's timeouts leave traces unsettled, so the
#           archive covers both the compacted and the live trace form,
#           and the telemetry span sample reads both.
#
# The script compares stdout with cmp (simrun's wall-time figure and
# output directory blanked) and the artifact trees with diff -r, and exits non-zero on
# any difference. Diagnostics (wall time, events/s) go to stderr and
# are not compared.
set -eu

if [ $# -ne 4 ]; then
	echo "usage: $0 PARENT_SORABENCH CHANGE_SORABENCH PARENT_SIMRUN CHANGE_SIMRUN" >&2
	exit 2
fi
parent=$1
change=$2
parent_simrun=$3
change_simrun=$4
tmp=$(mktemp -d "${TMPDIR:-/tmp}/sameout.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

status=0
for set in all ctrl decide simrun; do
	case $set in
	all) args="-exp all -scale 0.1 -seed 1" trees="tel csv" ;;
	ctrl) args="-exp fig12,chaos,ctrlplane -scale 0.5 -seed 5" trees="tel csv" ;;
	decide) args="-exp table3,ablation-model,ext-unified -scale 0.3 -seed 5" trees="tel csv" ;;
	simrun) args="-app sockshop -fault-plan combo -seed 5 -duration 60s -profile" trees="tel archive" ;;
	esac
	for side in parent change; do
		d="$tmp/$set/$side"
		mkdir -p "$d"
		if [ "$set" = simrun ]; then
			if [ "$side" = parent ]; then bin=$parent_simrun; else bin=$change_simrun; fi
			mkdir -p "$d/archive"
			# shellcheck disable=SC2086 # args is a word list on purpose
			if "$bin" $args -telemetry-dir "$d/tel" -trace-archive "$d/archive/traces.jsonl" >"$d/raw" 2>"$d/stderr"; then
				sed -e 's/(wall [^,]*,/(wall -,/' -e "s|$d/||g" "$d/raw" >"$d/stdout"
			else
				echo "sameout: $side run of set $set failed:" >&2
				cat "$d/stderr" >&2
				exit 1
			fi
			continue
		fi
		if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
		# shellcheck disable=SC2086 # args is a word list on purpose
		if ! "$bin" $args -quiet -telemetry-dir "$d/tel" -timeline "$d/tel/tl" -out "$d/csv" \
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
	for tree in $trees; do
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
