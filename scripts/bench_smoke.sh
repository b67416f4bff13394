#!/usr/bin/env sh
# Benchmark smoke: run each twinbench workload briefly on the default
# seed, whose cold-replay and cooled-plant reports are checked bit-exactly
# against twinbench/golden.json, and fail unless every run's result line
# (the last line it prints) reports "correct":true, at least one attempted
# operation and none failed. A twinbench build error fails the run too.
# Wired into `make bench-smoke`.
set -e
cd "$(dirname "$0")/.."
for w in cold-replay cooled-plant serve-mix co-design-study; do
	out=$(bash twinbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0) || {
		echo "bench-smoke: $w: twinbench exited non-zero" >&2
		printf '%s\n' "$out" >&2
		exit 1
	}
	last=$(printf '%s\n' "$out" | tail -n 1)
	attempted=$(printf '%s\n' "$last" | sed -n 's/.*"attempted":\([0-9][0-9]*\).*/\1/p')
	case $last in
	*'"correct":true,'*'"failed":0,'*) ok=${attempted:-0} ;;
	*) ok=0 ;;
	esac
	if [ "$ok" -eq 0 ]; then
		echo "bench-smoke: $w: failed" >&2
		printf '%s\n' "$out" >&2
		exit 1
	fi
	echo "bench-smoke: $w: ok ($attempted attempted, 0 failed)"
done
