#!/bin/sh
# fmacheck.sh — fail if the compiler fuses a floating-point multiply and
# add anywhere in the simulator's packages or in the binaries built on
# them.
#
# The Go spec lets the compiler compute x*y + z as one fused
# multiply-add, rounding once instead of twice, so the result can differ
# in the last bit. amd64 never fuses; arm64, ppc64le, s390x and riscv64
# do. A last-bit difference in a demand sample or a PS integration step
# can move a completion by a nanosecond and reorder events, so outputs
# would depend on the architecture. An explicit conversion rounds and
# stops the fusion: write float64(x*y) + z.
#
# The script cross-compiles ./internal/..., ./cmd/... and ./examples/...
# for arm64 with -gcflags=-S (no emulator needed; the build cache
# replays the assembly on warm runs) and lists every FMADDD, FMSUBD,
# FNMADDD or FNMSUBD instruction by the source line it came from. A
# line may carry a `//fma:allow <reason>` comment, for report-only code
# whose numbers never feed back into a run. Any other fused instruction
# fails the check.
#
# Usage: sh scripts/fmacheck.sh
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

asm=$(mktemp "${TMPDIR:-/tmp}/fmacheck.XXXXXX")
trap 'rm -f "$asm"' EXIT
if ! GOARCH=arm64 go build -gcflags=-S ./internal/... ./cmd/... ./examples/... >"$asm" 2>&1; then
	grep -v '^	0x' "$asm" >&2 || true
	echo "fmacheck: arm64 build failed" >&2
	exit 1
fi

# One "file:line op" per fused instruction, file relative to the root.
sites=$(awk -v root="$root/" '
	$0 ~ /[ \t](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[ \t]/ {
		if (match($0, /\([^()]*:[0-9]+\)/) == 0) next
		pos = substr($0, RSTART + 1, RLENGTH - 2)
		if (index(pos, root) == 1) pos = substr(pos, length(root) + 1)
		for (i = 1; i <= NF; i++) if ($i ~ /^F(N?M(ADD|SUB))D$/) op = $i
		print pos, op
	}' "$asm" | sort | uniq -c)

found=0
allowed=0
bad=0
if [ -n "$sites" ]; then
	while read -r count pos op; do
		found=$((found + count))
		file=${pos%:*}
		line=${pos##*:}
		src=$(sed -n "${line}p" "$file" 2>/dev/null || true)
		case $src in
		*"//fma:allow "?*)
			allowed=$((allowed + count))
			;;
		*)
			bad=$((bad + count))
			echo "$pos: $count fused $op; round the product explicitly, float64(x*y) + z, or mark the line //fma:allow <reason>" >&2
			echo "	$(echo "$src" | sed 's/^[[:space:]]*//')" >&2
			;;
		esac
	done <<EOF
$sites
EOF
fi

echo "fmacheck: $found fused instructions on arm64, $allowed allowed, $bad not"
[ "$bad" -eq 0 ]
