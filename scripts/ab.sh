#!/usr/bin/env bash
# A/B benchmark of the current checkout against a parent revision:
#
#   scripts/ab.sh PARENT [WORKLOADS] [PAIRS]
#
# PARENT is any git revision. WORKLOADS is a comma-separated list of
# ldpcbench workloads (default: every workload in BENCHMARK.json), and
# PAIRS the number of parent/change pairs per workload (default 10).
#
# The parent is exported with `git archive` into a temporary directory
# outside the repository and builds there; the current checkout,
# uncommitted edits included, runs in place and builds under its
# gitignored .bench_build/. Every run lasts BENCHMARK.json's
# run_seconds, both sides of a pair run the same seed, and the side
# that runs first alternates from pair to pair.
#
# Environment: AB_SEED (input seed, default 1) and AB_KEEP (a directory
# that receives every run's full output; by default the output is
# deleted with the temporary directory).
#
# Per workload and end-to-end metric it prints each side's median and
# interquartile range (IQR), the change's wins out of the pairs (ties
# count for neither side; "better" comes from BENCHMARK.json), the
# ratio of the medians (change / parent), the metric's bound, and every
# verdict that holds:
#
#   WORSE       the change's median is worse than the parent's by more
#               than the bound;
#   GAIN        the change wins at least nine tenths of the pairs, and
#               its median is better than the parent's by more than the
#               parent's IQR;
#   UNRESOLVED  either side's IQR exceeds the bound times the parent's
#               median, and not every change run beats every parent run.
#
# Per workload and side it prints the median core_speed and the summed
# failed/attempted counts, and flags any run whose correctness gate
# failed. Needs bash, git, awk and jq.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
	echo "usage: $0 PARENT [WORKLOADS] [PAIRS]" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
spec="$root/BENCHMARK.json"
parent_rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"
workloads="${2:-$(jq -r '[.workloads[].name] | join(",")' "$spec")}"
pairs="${3:-10}"
seed="${AB_SEED:-1}"
seconds="$(jq -r '.run_seconds' "$spec")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent" "$tmp/runs"
git -C "$root" archive "$parent_rev" | tar -x -C "$tmp/parent"
jq -r '.end_to_end[] | [.name, .better, .bound] | @tsv' "$spec" >"$tmp/metrics.tsv"
results="$tmp/results.tsv" # workload, pair, side, key, value
: >"$results"

# run SIDE DIR WORKLOAD PAIR: one benchmark run; its end-to-end
# metrics, core_speed and counts go to the results table.
run() {
	local side=$1 dir=$2 w=$3 pair=$4
	local log="$tmp/runs/$w-$pair-$side.log"
	if ! (cd "$dir" && bash ldpcbench/run.sh --workload "$w" --seed "$seed" \
		--seconds "$seconds" --trace 0) >"$log" 2>&1; then
		echo "  $side: run exited nonzero, see its log" >&2
	fi
	local json
	json="$(grep '^{' "$log" | tail -n 1 || true)"
	if [ -z "$json" ]; then
		echo "  $side: no result line" >&2
		printf '%s\t%s\t%s\t%s\t%s\n' "$w" "$pair" "$side" correct false >>"$results"
		return
	fi
	jq -r --arg w "$w" --arg p "$pair" --arg s "$side" '
		(.metrics | to_entries[] | [$w, $p, $s, .key, (.value.value | tostring)]),
		[$w, $p, $s, "correct", (.correct | tostring)],
		[$w, $p, $s, "failed", (.failed | tostring)],
		[$w, $p, $s, "attempted", (.attempted | tostring)]
		| @tsv' <<<"$json" >>"$results"
	awk -v w="$w" -v p="$pair" -v s="$side" \
		'$1 == "#" && $2 == w && $3 == "core_speed" { print w "\t" p "\t" s "\tcore_speed\t" $4 }' \
		"$log" >>"$results"
	printf '  %-6s %s\n' "$side" "$(jq -c '.metrics | map_values(.value)' <<<"$json")" >&2
}

IFS=, read -r -a wl <<<"$workloads"
for w in "${wl[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		echo "$w pair $i/$pairs" >&2
		if ((i % 2)); then
			run parent "$tmp/parent" "$w" "$i"
			run change "$root" "$w" "$i"
		else
			run change "$root" "$w" "$i"
			run parent "$tmp/parent" "$w" "$i"
		fi
	done
done
if [ -n "${AB_KEEP:-}" ]; then
	mkdir -p "$AB_KEEP"
	cp "$tmp"/runs/*.log "$results" "$AB_KEEP"/
fi

echo "A/B $(git -C "$root" rev-parse --short "$parent_rev") -> working tree, seed $seed, ${seconds}s runs, $pairs pairs"
awk -F'\t' -v order="$workloads" '
	# quantile q of the sorted values v[1..n], linear interpolation
	function quant(v, n, q,    h, lo) {
		h = (n - 1) * q + 1
		lo = int(h)
		return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
	}
	# stats key: sorts the samples of key into s[] and sets med, iqr,
	# lo and hi (the smallest and largest sample)
	function stats(key,    n, i, j, t) {
		n = cnt[key]
		for (i = 1; i <= n; i++) s[i] = val[key, i]
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
		med = n ? quant(s, n, 0.5) : "nan"
		iqr = n ? quant(s, n, 0.75) - quant(s, n, 0.25) : "nan"
		lo = s[1]; hi = s[n]
		return n
	}
	FNR == NR { better[$1] = $2; bound[$1] = $3; names[++nm] = $1; next }
	{
		w = $1; p = $2; side = $3; k = $4
		x[w, p, side, k] = $5
		key = w SUBSEP side SUBSEP k
		val[key, ++cnt[key]] = $5
		if (!((w, p) in seen)) { seen[w, p] = 1; np[w]++; pl[w, np[w]] = p }
	}
	END {
		nw = split(order, ws, ",")
		printf "%-15s %-15s %11s %9s %11s %9s %6s %8s %6s\n",
			"workload", "metric", "parent_med", "iqr", "change_med", "iqr", "wins", "ratio", "bound"
		for (a = 1; a <= nw; a++) {
			w = ws[a]
			for (b = 1; b <= nm; b++) {
				m = names[b]
				if (!stats(w SUBSEP "parent" SUBSEP m)) continue
				pm = med; pi = iqr; plo = lo; phi = hi
				if (!stats(w SUBSEP "change" SUBSEP m)) continue
				cm = med; ci = iqr; clo = lo; chi = hi
				wins = 0; n = 0
				for (i = 1; i <= np[w]; i++) {
					p = pl[w, i]
					if (!((w, p, "parent", m) in x) || !((w, p, "change", m) in x)) continue
					n++
					d = x[w, p, "change", m] - x[w, p, "parent", m]
					if (better[m] == "lower") d = -d
					if (d > 0) wins++
				}
				ratio = pm != 0 ? cm / pm : "inf"
				up = better[m] == "higher"
				verdict = ""
				if (up ? cm < pm * (1 - bound[m]) : cm > pm * (1 + bound[m])) verdict = verdict "  WORSE"
				if (n > 0 && wins * 10 >= 9 * n && (up ? cm - pm : pm - cm) > pi) verdict = verdict "  GAIN"
				spread = bound[m] * (pm < 0 ? -pm : pm)
				if ((pi > spread || ci > spread) && !(up ? clo > phi : chi < plo)) verdict = verdict "  UNRESOLVED"
				printf "%-15s %-15s %11.4g %9.3g %11.4g %9.3g %3d/%-2d %8.3g %6.2f%s\n",
					w, m, pm, pi, cm, ci, wins, n, ratio, bound[m], verdict
			}
			for (si = 1; si <= 2; si++) {
				side = si == 1 ? "parent" : "change"
				stats(w SUBSEP side SUBSEP "core_speed"); cs = med
				f = 0; t = 0; bad = 0
				for (i = 1; i <= np[w]; i++) {
					p = pl[w, i]
					f += x[w, p, side, "failed"]; t += x[w, p, side, "attempted"]
					if (x[w, p, side, "correct"] != "true") bad++
				}
				printf "%-15s %-6s core_speed median %.3g, failed/attempted %d/%d%s\n",
					w, side, cs, f, t, bad ? sprintf(", %d runs FAILED the correctness gate", bad) : ""
			}
		}
	}' "$tmp/metrics.tsv" "$results"
