#!/bin/sh
# Go lines changed between two revisions:
#
#   scripts/netlines.sh PARENT [CHANGE]
#
# PARENT and CHANGE are git revisions. CHANGE defaults to the working
# tree, whose untracked .go files (those .gitignore does not exclude)
# count as added. From `git diff --numstat` it prints the lines added,
# removed and net, for the root module and for ldpcbench/ (its own
# module) separately, each split into non-test files and _test.go
# files.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 PARENT [CHANGE]" >&2
	exit 2
fi
cd "$(dirname "$0")/.."

{
	git diff --numstat --no-renames "$@" -- '*.go'
	if [ $# -eq 1 ]; then
		git ls-files --others --exclude-standard -- '*.go' | while IFS= read -r f; do
			printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
		done
	fi
} | awk -F'\t' '
	{
		mod = $3 ~ /^ldpcbench\// ? "ldpcbench" : "root"
		kind = $3 ~ /_test\.go$/ ? "test" : "non-test"
		add[mod, kind] += $1
		del[mod, kind] += $2
	}
	END {
		printf "%-10s %-9s %8s %8s %8s\n", "module", "files", "added", "removed", "net"
		split("root ldpcbench", mods, " ")
		split("non-test test", kinds, " ")
		for (m = 1; m <= 2; m++)
			for (k = 1; k <= 2; k++) {
				a = add[mods[m], kinds[k]] + 0
				d = del[mods[m], kinds[k]] + 0
				printf "%-10s %-9s %+8d %8s %+8d\n", mods[m], kinds[k], a, "-" d, a - d
			}
	}'
