#!/bin/sh
# Non-test Go lines outside bench/, per package directory and in total: the
# number ROADMAP aim 2 asks every PR to move. Then core.Config's field count,
# the other number ROADMAP item 5 judges by. Run from the repository root.
set -eu
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' |
	while read -r f; do printf '%s %s\n' "$(dirname "$f" | sed 's|^\./||')" "$(wc -l <"$f")"; done |
	awk '{ n[$1] += $2; total += $2 }
	END { for (p in n) printf "%6d %s\n", n[p], p | "sort -k2"; close("sort -k2"); printf "%6d total\n", total }'
awk '/^type Config struct/ { in_cfg = 1; next }
	in_cfg && /^}/ { exit }
	in_cfg && /^\t[A-Z][A-Za-z0-9]* / { n++ }
	END { printf "%6d core.Config fields\n", n }' internal/core/core.go
