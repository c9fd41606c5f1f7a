#!/bin/sh
# regress.sh — the regression sentinel (see DESIGN.md §15).
#
# Replays the pinned scenario suite (internal/experiment.RunBaselineSuite:
# three 90s chaos units, fixed seed, combo fault plan) and checks the
# fresh goodput fractions and p99s — plus, in full mode, the kernel
# micro-benchmark allocs/op and events/s — against the checked-in
# BASELINE.json. Exits nonzero on any regression past an entry's
# tolerance, so it slots directly into CI.
#
# Usage:
#   scripts/regress.sh                      # full check vs BASELINE.json
#   scripts/regress.sh -quick               # sim metrics only (CI-safe; verify.sh runs this)
#   scripts/regress.sh -quick OTHER.json    # check against another baseline
#
# After a deliberate behavior change, refresh the baseline with
#   go run ./cmd/sorabench -baseline BASELINE.json -baseline-update
# and commit the diff — the review of that diff IS the regression review.
set -eu
cd "$(dirname "$0")/.."

QUICK=""
if [ "${1:-}" = "-quick" ]; then
	QUICK="-baseline-quick"
	shift
fi
BASELINE="${1:-BASELINE.json}"

BIN_DIR="$(mktemp -d)"
trap 'rm -rf "$BIN_DIR"' EXIT
go build -o "$BIN_DIR/sorabench" ./cmd/sorabench
"$BIN_DIR/sorabench" -baseline "$BASELINE" $QUICK
