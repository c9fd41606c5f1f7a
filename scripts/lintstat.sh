#!/bin/sh
# lintstat.sh — run soravet over the module and append a one-line JSON
# scan summary (files scanned, findings per check, suppression count,
# wall ms) so lint coverage and cost stay visible in the verify log.
# verify.sh runs this as its soravet step;
# the exit code is soravet's (1 on findings, 2 on errors), so the gate
# is unchanged — the summary line is purely additive.
#
# Usage:
#   scripts/lintstat.sh [soravet args...]     # default: ./...
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
	set -- ./...
fi
go run ./cmd/soravet -stat "$@"
