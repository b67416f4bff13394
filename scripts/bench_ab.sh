#!/usr/bin/env sh
# Paired A/B benchmark: the working tree (B) against a committed revision
# (A), through each side's own twinbench/run.sh.
#
#   scripts/bench_ab.sh REV [workload] [seeds] [pairs]
#   scripts/bench_ab.sh HEAD cold-replay "1 7" 10      # the defaults
#
# REV is exported with `git archive` into .bench_build/ab-<sha>/ (no
# network, nothing registered in .git) and built there from source. For
# each seed, the two sides run interleaved ABBA, alternating which runs
# first, for `pairs` pairs of BENCHMARK.json's run_seconds each. Every
# run must report "correct":true and "failed":0, or the comparison stops.
#
# For each seed and end-to-end metric it prints both sides' medians and
# quartiles, the paired ratio B/A as median (min-max), how many pairs B
# won, and a verdict:
#   better        B won at least 9 of 10 pairs and its median beats A's
#                 by more than A's interquartile range;
#   worse         the mirror image, or B's median is worse than A's by
#                 more than the metric's bound in BENCHMARK.json;
#   unresolved    otherwise, when A's interquartile range is wider than
#                 the bound (bound × A's median) and not every B run
#                 beats every A run: the runs cannot tell a change of
#                 the bound's size from noise;
#   within noise  none of these.
# The raw samples stay in .bench_build/ab-<sha>-<pid>.tsv.
set -eu
cd "$(dirname "$0")/.."
usage='usage: scripts/bench_ab.sh REV [workload] [seeds] [pairs]'
rev=${1:?$usage}
workload=${2:-cold-replay}
seeds=${3:-1 7}
pairs=${4:-10}
secs=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)

sha=$(git rev-parse --verify --quiet "$rev^{commit}") || {
	echo "bench-ab: $rev is not a commit" >&2
	exit 2
}
base=.bench_build/ab-$sha
if [ ! -f "$base/.exported" ]; then
	rm -rf "$base"
	mkdir -p "$base"
	git archive "$sha" | tar -x -C "$base"
	: >"$base/.exported"
fi

# BENCHMARK.json's end-to-end metrics, one "name unit better bound" line
# each (its objects list name, unit, better and bound in that order).
spec=.bench_build/ab-$sha-$$.spec
awk '
	function str(s) { sub(/^[^:]*: *"/, "", s); sub(/".*$/, "", s); return s }
	function num(s) { sub(/^[^:]*: */, "", s); sub(/[ ,]*$/, "", s); return s }
	/"end_to_end"/ { on = 1; next }
	on && /^[ \t]*\]/ { on = 0 }
	on && /"name"/ { name = str($0) }
	on && /"unit"/ { unit = str($0) }
	on && /"better"/ { better = str($0) }
	on && /"bound"/ { printf "%s\t%s\t%s\t%s\n", name, unit, better, num($0) }
' BENCHMARK.json >"$spec"
metrics=$(cut -f1 "$spec")

samples=.bench_build/ab-$sha-$$.tsv
: >"$samples"

# run SIDE DIR SEED PAIR: one twinbench run, its metrics appended to
# the samples file as "side seed pair metric value".
run() {
	line=$(cd "$2" && bash twinbench/run.sh --workload "$workload" --seed "$3" --seconds "$secs" --trace 0 | tail -n 1)
	case $line in
	*'"correct":true,'*'"failed":0,'*) ;;
	*)
		echo "bench-ab: side $1, seed $3, pair $4 failed its checks: $line" >&2
		exit 1
		;;
	esac
	for m in $metrics; do
		v=$(printf '%s\n' "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")
		printf '%s\t%s\t%s\t%s\t%s\n' "$1" "$3" "$4" "$m" "$v" >>"$samples"
	done
}

echo "bench-ab: $workload, A = $rev ($(echo "$sha" | cut -c1-12)), B = working tree," \
	"$pairs ABBA pairs of ${secs} s per seed, seeds: $seeds"
for seed in $seeds; do
	p=1
	while [ "$p" -le "$pairs" ]; do
		if [ $((p % 2)) -eq 1 ]; then
			run A "$base" "$seed" "$p"
			run B . "$seed" "$p"
		else
			run B . "$seed" "$p"
			run A "$base" "$seed" "$p"
		fi
		echo "bench-ab: seed $seed: pair $p/$pairs done" >&2
		p=$((p + 1))
	done
done

awk -F '\t' '
	function sortn(x, n,   i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
	}
	# quantile q of sorted x[1..n], interpolated between order statistics.
	function quant(x, n, q,   pos, lo) {
		pos = 1 + (n - 1) * q
		lo = int(pos)
		if (lo >= n) return x[n]
		return x[lo] + (pos - lo) * (x[lo + 1] - x[lo])
	}
	FNR == NR { unit[$1] = $2; better[$1] = $3; bound[$1] = $4; order[++nm] = $1; next }
	{
		v[$1, $2, $3, $4] = $5
		if (!($2 in seen)) { seen[$2] = 1; seeds[++ns] = $2 }
		if ($3 + 0 > np) np = $3 + 0
	}
	END {
		printf "%-5s %-12s %-8s %-30s %-30s %-28s %-6s %s\n", "seed", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B/A median (min-max)", "B won", "verdict"
		for (si = 1; si <= ns; si++) for (mi = 1; mi <= nm; mi++) {
			s = seeds[si]; m = order[mi]; hi = better[m] == "higher"
			n = 0; nr = 0; won = 0; lost = 0
			for (p = 1; p <= np; p++) {
				a = v["A", s, p, m]; b = v["B", s, p, m]
				if (a == "" || b == "") continue
				a += 0; b += 0
				n++; A[n] = a; B[n] = b
				if (a != 0) R[++nr] = b / a
				if ((hi && b > a) || (!hi && b < a)) won++
				if ((hi && b < a) || (!hi && b > a)) lost++
			}
			if (n == 0) continue
			sortn(A, n); sortn(B, n); sortn(R, nr)
			ma = quant(A, n, 0.5); mb = quant(B, n, 0.5); iqr = quant(A, n, 0.75) - quant(A, n, 0.25)
			gain = hi ? mb - ma : ma - mb
			# every B run beats every A run
			allbeat = hi ? B[1] > A[n] : B[n] < A[1]
			verdict = "within noise"
			if (iqr > bound[m] * (ma < 0 ? -ma : ma) && !allbeat) verdict = "unresolved (A spread > bound " bound[m] ")"
			if (won >= 0.9 * n && gain > iqr) verdict = "better"
			if (lost >= 0.9 * n && -gain > iqr) verdict = "worse"
			if (ma != 0 && ((hi && mb / ma < 1 - bound[m]) || (!hi && mb / ma > 1 + bound[m]))) verdict = "worse (beyond bound " bound[m] ")"
			ratio = "-"
			if (nr > 0) ratio = sprintf("%.3f (%.3f-%.3f)", quant(R, nr, 0.5), R[1], R[nr])
			printf "%-5s %-12s %-8s %-30s %-30s %-28s %-6s %s\n", s, m, unit[m],
				sprintf("%.4g [%.4g, %.4g]", ma, quant(A, n, 0.25), quant(A, n, 0.75)),
				sprintf("%.4g [%.4g, %.4g]", mb, quant(B, n, 0.25), quant(B, n, 0.75)),
				ratio, won "/" n, verdict
		}
	}
' "$spec" "$samples"
rm -f "$spec"
echo "bench-ab: samples in $samples"
