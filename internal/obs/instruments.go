package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; writes are a single atomic add.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) sampleValue() float64 { return float64(c.v.Load()) }

// Gauge is a float64 gauge. The zero value is ready to use; Set is one
// atomic store, Add a CAS loop.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one (in-flight style gauges).
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) sampleValue() float64 { return g.Value() }

// DefBuckets are the default duration buckets (seconds), spanning the
// sub-millisecond cache-hit path through multi-second cold simulations.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a bounded-bucket histogram: a fixed set of upper bounds
// decided at construction, per-bucket atomic counters, and an atomic
// sum. Observe is lock-free — one binary search plus two atomic ops.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	n      atomic.Uint64
}

// NewHistogram builds a histogram over the given sorted upper bounds
// (nil → DefBuckets). The +Inf bucket is implicit.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.bounds) {
		h.counts[lo].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram: bucket
// upper bounds with cumulative counts, the total count, and the sum of
// observed values.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending, +Inf excluded
	Counts []uint64  // cumulative count ≤ each bound
	Count  uint64    // total observations (the +Inf cumulative count)
	Sum    float64
}

// Snapshot copies the histogram's current state with cumulative bucket
// counts (the exposition form). Concurrent observers may land between
// bucket and count loads; the skew is at most the handful of in-flight
// observations, never an inconsistency a scraper can detect as
// non-monotonic.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Counts[i] = cum
	}
	s.Count = cum + h.inf.Load()
	return s
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	s := v.f.seriesFor(labelValues, func(s *series) { s.counter = &Counter{} })
	return s.counter
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	s := v.f.seriesFor(labelValues, func(s *series) { s.gauge = &Gauge{} })
	return s.gauge
}
