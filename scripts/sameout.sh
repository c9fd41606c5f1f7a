#!/bin/sh
# sameout.sh — check that two builds produce byte-identical output
# (EXPERIMENTS.md § Byte-identity of two builds).
#
# Usage:
#   scripts/sameout.sh [-keep DIR] PARENT_SORABENCH CHANGE_SORABENCH \
#       PARENT_SIMRUN CHANGE_SIMRUN PARENT_EXAMPLES CHANGE_EXAMPLES
#
# The four binaries are sorabench and simrun built from the two trees
# (go build -o BIN ./cmd/sorabench, go build -o BIN ./cmd/simrun). The
# two example directories each hold the four examples/ programs of one
# tree, built with go build -o DIR/NAME ./examples/NAME for NAME in
# quickstart, customtopology, socialnetwork and sockshop. The two sides
# may also be one tree built for two architectures, which checks that
# outputs do not depend on GOARCH: build the "parent" side as above
# (amd64) and the "change" side with GOARCH=386 go build (386 binaries
# run on an amd64 host; they use the pure-Go math library instead of
# amd64's assembly). Each
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
#           archive covers both the settled and the unsettled trace
#           form, and the telemetry span sample reads both.
#
# A telemetry recorder declares trace retention (the flush samples
# spans from the warehouse), so the sets above never run a cluster that
# keeps no traces. The last set runs both binaries without telemetry:
#
#   bare:   sorabench -exp all -scale 0.1 -seed 1 -quiet (stdout only),
#           then simrun -app sockshop -fault-plan combo -seed 5
#           -duration 60s -trace-archive. Every experiment whose rig
#           measures no resource stores no trace here. simrun's monitor
#           measures the cart pool and so still declares retention; its
#           archive checks the run without the recorder.
#
# A recorder also widens the warehouse to trace.DefaultRetention, the
# cap on declared reach, and no set above both runs without one and
# runs long enough to evict. The reach set does:
#
#   reach:  sorabench -exp fig9,ablation-deadline,fig12,chaos,ctrlplane,
#           fig7,table1 -scale 0.5 -seed 5 -quiet (stdout only). The
#           controllers' warehouses keep only their monitor's and
#           model's reach and evict within these runs, and fig9's and
#           ablation-deadline's models read their whole 90 s profiling
#           runs after them. fig7 and table1 read span logs after runs
#           that outlast the monitor's 60 s reach, so a post-run reader
#           that does not declare the cap before its run diffs here.
#
# A recorder declares no completion log, so the end-to-end and span
# logs keep their readers' declared reach in every set, and every set
# whose runs outlast the monitor's 60 s prunes them: all, ctrl, decide,
# bare, reach and examples.
#
# The examples set runs each example program with no arguments and
# compares their stdout. They drive FIRM, the HPA, the monitor and the
# SCG model through the public API alone (about 18 s in all on 2 vCPUs,
# most of it socialnetwork):
#
#   examples: quickstart, customtopology, socialnetwork, sockshop
#
# The sets also cover both forms a warehouse stores its traces in
# (DESIGN.md §13 "Declared trace form"), which follows from its
# declared readers. A recorder declares whole traces, so the all,
# ctrl, decide and simrun sets run whole-form warehouses. In the bare,
# reach and examples sets only monitors and models declare, so their
# warehouses keep the scan form; bare's simrun archive is then written
# by Trace.Retain's encode of the live trees, not copied from the
# warehouse.
#
# The script compares stdout with cmp (simrun's wall-time figure and
# output directory blanked) and the artifact trees with diff -r, and exits non-zero on
# any difference. Diagnostics (wall time, events/s) go to stderr and
# are not compared.
#
# The outputs go to a temporary directory that is deleted on exit. With
# -keep DIR they go to DIR/SET/parent and DIR/SET/change instead and
# are kept, so a change that removes an output on purpose can be
# checked by filtering the parent's trees and comparing them by hand.
# DIR must not exist or be empty.
set -eu

usage="usage: $0 [-keep DIR] PARENT_SORABENCH CHANGE_SORABENCH PARENT_SIMRUN CHANGE_SIMRUN PARENT_EXAMPLES CHANGE_EXAMPLES"
keep=
if [ $# -ge 1 ] && [ "$1" = -keep ]; then
	if [ $# -lt 2 ]; then
		echo "$usage" >&2
		exit 2
	fi
	keep=$2
	shift 2
fi
if [ $# -ne 6 ]; then
	echo "$usage" >&2
	exit 2
fi
parent=$1
change=$2
parent_simrun=$3
change_simrun=$4
parent_examples=$5
change_examples=$6
examples="quickstart customtopology socialnetwork sockshop"
for dir in "$parent_examples" "$change_examples"; do
	for ex in $examples; do
		if [ ! -x "$dir/$ex" ]; then
			echo "sameout: no example binary $dir/$ex" >&2
			exit 2
		fi
	done
done
if [ -n "$keep" ]; then
	mkdir -p "$keep"
	if [ -n "$(ls -A "$keep")" ]; then
		echo "sameout: -keep directory $keep is not empty" >&2
		exit 2
	fi
	tmp=$(cd "$keep" && pwd)
else
	tmp=$(mktemp -d "${TMPDIR:-/tmp}/sameout.XXXXXX")
	trap 'rm -rf "$tmp"' EXIT
fi
trap 'exit 1' INT TERM

status=0
for set in all ctrl decide simrun bare reach examples; do
	case $set in
	all) args="-exp all -scale 0.1 -seed 1" trees="tel csv" ;;
	ctrl) args="-exp fig12,chaos,ctrlplane -scale 0.5 -seed 5" trees="tel csv" ;;
	decide) args="-exp table3,ablation-model,ext-unified -scale 0.3 -seed 5" trees="tel csv" ;;
	simrun) args="-app sockshop -fault-plan combo -seed 5 -duration 60s -profile" trees="tel archive" ;;
	bare) args="-exp all -scale 0.1 -seed 1 -quiet" trees="archive" ;;
	reach) args="-exp fig9,ablation-deadline,fig12,chaos,ctrlplane,fig7,table1 -scale 0.5 -seed 5 -quiet" trees="" ;;
	examples) trees="" ;;
	esac
	for side in parent change; do
		d="$tmp/$set/$side"
		mkdir -p "$d"
		if [ "$set" = examples ]; then
			if [ "$side" = parent ]; then dir=$parent_examples; else dir=$change_examples; fi
			for ex in $examples; do
				echo "== $ex" >>"$d/stdout"
				if ! "$dir/$ex" >>"$d/stdout" 2>>"$d/stderr"; then
					echo "sameout: $side run of example $ex failed:" >&2
					cat "$d/stderr" >&2
					exit 1
				fi
			done
			continue
		fi
		if [ "$set" = bare ]; then
			if [ "$side" = parent ]; then
				bin=$parent sim=$parent_simrun
			else
				bin=$change sim=$change_simrun
			fi
			mkdir -p "$d/archive"
			# shellcheck disable=SC2086 # args is a word list on purpose
			if ! "$bin" $args >"$d/stdout" 2>"$d/stderr" ||
				! "$sim" -app sockshop -fault-plan combo -seed 5 -duration 60s \
					-trace-archive "$d/archive/traces.jsonl" >"$d/raw" 2>>"$d/stderr"; then
				echo "sameout: $side run of set $set failed:" >&2
				cat "$d/stderr" >&2
				exit 1
			fi
			sed -e 's/(wall [^,]*,/(wall -,/' -e "s|$d/||g" "$d/raw" >>"$d/stdout"
			continue
		fi
		if [ "$set" = reach ]; then
			if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
			# shellcheck disable=SC2086 # args is a word list on purpose
			if ! "$bin" $args >"$d/stdout" 2>"$d/stderr"; then
				echo "sameout: $side run of set $set failed:" >&2
				cat "$d/stderr" >&2
				exit 1
			fi
			continue
		fi
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
