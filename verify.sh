#!/bin/sh
# verify.sh — tier-1 verification for this repository (see ROADMAP.md).
#
# Runs vet, the soravet determinism/telemetry linter, build, the full
# test suite, and the race detector over the packages that contain
# concurrent code (the parallel experiment runner, the sim kernel it
# fans out, the cluster and trace warehouse it mutates, the telemetry
# tree and the shared profile aggregator). The race step uses -short:
# every test that exercises the concurrent paths (parMap, RunMany, the
# serial-vs-parallel sweep and profile equivalence, the concurrent-Add
# aggregator order test, the cancel-churn kernel test) runs under
# -short; the excluded tests are the minutes-long full-driver smoke
# runs, which the non-race `go test ./...` step already covers.
# `go vet ./...` covers every cmd/ (including cmd/tracedig) and
# internal/ package; `soravet` (see internal/lint and DESIGN.md §Static
# analysis) machine-checks the repo-specific invariants vet cannot:
# wallclock, globalrand, maporder, nilrecv, eventname, plus the
# flow-aware poolsafe/hotpath analyses, the racelist drift check
# (which parses this script's -race line, so the package list below can
# never silently lag a package gaining concurrency) and the deadcode
# reachability check rooted at every binary. The separate
# benchmark module gets its own vet and test step. The soravet step
# runs through scripts/lintstat.sh, which appends a one-line JSON scan
# summary (files, findings per check, suppressions, wall ms) to the
# output. internal/bench's TestRunMatchesBaseline (in both test steps)
# runs the sentinel's micro-benchmark suite once per benchmark and
# checks it produces exactly the benchmarks BASELINE.json gates. The
# final step is the regression sentinel (scripts/regress.sh -quick),
# which checks the deterministic goodput/p99 metrics of a pinned
# chaos-scenario suite against the checked-in BASELINE.json.
set -eu
cd "$(dirname "$0")"

echo "== gofmt -l"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== soravet ./... (via scripts/lintstat.sh)"
sh scripts/lintstat.sh

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

# The benchmark (benchmark/, BENCHMARK.json) is its own module with
# `replace sora => ../`, so the root `./...` steps above never build it;
# vetting and testing it here catches an internal API change that breaks
# it. Its tests write only under t.TempDir, leaving the tree clean.
echo "== go vet + go test (benchmark module)"
go -C benchmark vet .
go -C benchmark test .

echo "== go test -race (concurrent packages)"
go test -race -short ./internal/experiment ./internal/sim ./internal/telemetry ./internal/profile ./internal/cluster ./internal/trace ./internal/fault ./internal/metrics ./internal/stats ./internal/compare ./internal/lint ./internal/node ./internal/bench

echo "== regression sentinel (quick: deterministic sim metrics vs BASELINE.json)"
sh scripts/regress.sh -quick BASELINE.json

echo "verify: OK"
