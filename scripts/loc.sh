#!/bin/sh
# Non-test Go lines outside bench/, per package directory and in total: the
# number ROADMAP aim 2 asks every PR to move. Run from the repository root.
set -eu
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' |
	while read -r f; do printf '%s %s\n' "$(dirname "$f" | sed 's|^\./||')" "$(wc -l <"$f")"; done |
	awk '{ n[$1] += $2; total += $2 }
	END { for (p in n) printf "%6d %s\n", n[p], p | "sort -k2"; close("sort -k2"); printf "%6d total\n", total }'
