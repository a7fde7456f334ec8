#!/bin/sh
# Non-test, non-generated Go line counts for the two groups ROADMAP's
# north star compares — the serving stack and the simulator it serves —
# plus the v1 front-end subset (transport + fleet + the two daemon
# mains) that the "one front end" refactors are measured by. Lines are
# physical lines (wc -l): blank lines and comments count, so deleting
# comments or reflowing code shows up here as what it is.
#
# Usage: scripts/loc.sh [repo-root]   (or: make loc)
set -eu
cd "${1:-$(dirname "$0")/..}"

# count DIR...: lines of the .go files directly in each DIR that are
# neither tests nor generated.
count() {
	total=0
	for d in "$@"; do
		for f in "$d"/*.go; do
			[ -f "$f" ] || continue
			case "$f" in *_test.go) continue ;; esac
			if head -5 "$f" | grep -q '^// Code generated .* DO NOT EDIT\.$'; then continue; fi
			total=$((total + $(wc -l < "$f")))
		done
	done
	echo "$total"
}

serving="api internal/engine internal/store internal/transport internal/fleet internal/obs internal/spans cmd/hbatd"
simulator="internal/cpu internal/tlb internal/cache internal/bpred internal/vm internal/mem"
frontend="internal/transport internal/fleet cmd/hbatd"

printf '%-10s %6s  %s\n' group lines packages
printf '%-10s %6d  %s\n' serving "$(count $serving)" "$serving"
printf '%-10s %6d  %s\n' simulator "$(count $simulator)" "$simulator"
printf '%-10s %6d  %s\n' frontend "$(count $frontend)" "$frontend"
for d in $frontend; do
	printf '  %-22s %6d\n' "$d" "$(count "$d")"
done
printf '%-10s %6d  %s\n' all "$(count $(find . -name '*.go' -not -path './.git/*' -exec dirname {} \; | sort -u))" "every package in the module"
