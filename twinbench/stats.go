package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie strictly above a reported
// tail percentile for it to be trusted.
const tailMinBeyond = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile applies the tail rule: it returns the highest whole
// percentile, up to p99, that has at least tailMinBeyond samples above
// its nearest-rank value, with that value. Capping at p99 keeps the
// metric the same percentile from run to run once a run has 1000
// samples. With too few samples for any percentile to qualify it
// returns the maximum as p100.
func tailPercentile(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	for _, p := range wholePercents() {
		idx := nearestRank(len(s), p)
		if len(s)-1-idx >= tailMinBeyond {
			return s[idx], p
		}
	}
	return s[len(s)-1], 100
}

// wholePercents lists 99, 98, ..., 1.
func wholePercents() []float64 {
	ps := make([]float64, 0, 99)
	for p := 99; p >= 1; p-- {
		ps = append(ps, float64(p))
	}
	return ps
}

// nearestRank returns the 0-based index of percentile p by the
// nearest-rank method.
func nearestRank(n int, p float64) int {
	// The tolerance keeps float rounding (p/100·n a hair above an
	// integer) from pushing the rank up by one.
	idx := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
