// Package obs is the pipeline's observability substrate: a
// stdlib-only metrics registry of atomic counters, gauges, and
// fixed-bucket latency histograms, with mergeable snapshots so a
// distributed run can aggregate every rank's metrics at the root into
// one report (report.go).
//
// Design constraints, in order:
//
//  1. Hot-path safety: Counter.Add and Histogram.Observe are single
//     atomic operations (plus a branchless bucket search); no locks,
//     no allocation. The registry lock is only taken when *resolving*
//     a metric by name, which instrumented code does once and caches.
//  2. Nil tolerance: every method is a no-op on a nil receiver, so
//     un-instrumented runs (Registry pointer left nil) pay only a nil
//     check — call sites need no conditionals.
//  3. Mergeability: snapshots are plain data (maps of int64/float64)
//     that gob- and JSON-serialize as-is, and merge by summation, so
//     per-rank registries gathered at rank 0 collapse into one global
//     view. Histogram bounds are part of the snapshot and must match
//     to merge — mismatches are configuration bugs and fail loudly.
//
// Naming convention: dot-separated lowercase paths, coarse subsystem
// first — "map.align.seconds", "comm.send.bytes", "call.tested". The
// ".seconds" suffix marks duration histograms, ".bytes" byte counters.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ProcessRank tags a snapshot with process-wide (rank-independent)
// metrics — file I/O, setup — as opposed to a cluster rank's registry.
// Merged snapshots also carry it.
const ProcessRank = -1

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 level (a "last observed
// value": queue depth, memory footprint, band width). Gauges merge by
// summation — for per-rank resource gauges (bytes held, goroutines)
// the cluster-wide total is the meaningful aggregate.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current level (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observation v lands in the
// first bucket whose upper bound is >= v, or the overflow bucket. The
// bounds are fixed at creation so snapshots from different ranks merge
// bucket-by-bucket.
type Histogram struct {
	bounds []float64      // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	total  atomic.Int64
	sumBts atomic.Uint64 // float64 bits of the running sum (CAS loop)
}

// DurationBuckets is the default latency bucket ladder: powers of 4
// from 1 µs to ~17 s. Thirteen bounds cover seed lookups (~µs) through
// whole cluster phases (~s) with <= 2x relative error per bucket pair.
var DurationBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6,
	1.024e-3, 4.096e-3, 16.384e-3, 65.536e-3, 262.144e-3,
	1.048576, 4.194304, 16.777216,
}

// CountBuckets is the default ladder for small-count distributions
// (candidates per read, hits per seed): 0, then powers of two to 4096.
var CountBuckets = []float64{
	0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBts.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBts.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBts.Load())
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is a valid
// "observability off" value: every method returns a nil metric whose
// operations are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// defaultRegistry collects process-wide metrics (file I/O, setup) that
// have no natural per-rank owner.
var defaultRegistry = NewRegistry()

// Default returns the shared process-wide registry. Library code with
// no registry plumbed in (file I/O) records here; the CLI folds it
// into the final report as the ProcessRank snapshot.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Bounds must be ascending; a later call with
// different bounds returns the existing histogram (first creation
// wins), so resolve histograms from one place per name.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Timer returns the named duration histogram (DurationBuckets bounds).
func (r *Registry) Timer(name string) *Histogram {
	return r.Histogram(name, DurationBuckets)
}

// StartTimer starts a stage timer: the returned stop function records
// the elapsed time into the named duration histogram. For coarse
// stages (whole-file I/O, a calling pass); hot paths should resolve
// the histogram once and call ObserveDuration directly.
func (r *Registry) StartTimer(name string) func() {
	if r == nil {
		return func() {}
	}
	h := r.Timer(name)
	t0 := time.Now()
	return func() { h.ObserveDuration(time.Since(t0)) }
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds; Counts has one
	// entry per bound plus the overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the mean observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile approximates the q-quantile (0 < q < 1) by linear
// interpolation within the containing bucket. The overflow bucket
// reports its lower bound (the estimate is then a floor).
func (h HistogramSnapshot) Quantile(q float64) float64 {
	v, _ := h.quantile(q)
	return v
}

// quantile is Quantile plus whether the estimate is only a lower bound:
// the quantile landed in the overflow bucket, above every bound.
func (h HistogramSnapshot) quantile(q float64) (float64, bool) {
	if h.Count == 0 {
		return 0, false
	}
	target := q * float64(h.Count)
	cum := int64(0)
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if float64(cum) < target || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		if i >= len(h.Bounds) {
			return lo, true
		}
		hi := h.Bounds[i]
		frac := (target - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac, false
	}
	if n := len(h.Bounds); n > 0 {
		return h.Bounds[n-1], len(h.Counts) > n && h.Counts[n] > 0
	}
	return 0, false
}

// Snapshot is a registry's state at one moment: plain data, safe to
// serialize (gob, JSON) and to merge. Rank records which cluster rank
// produced it (ProcessRank for process-wide or merged snapshots).
type Snapshot struct {
	Rank       int                          `json:"rank"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state, tagged with rank.
// Concurrent-safe: per-metric reads are atomic (bucket counts and the
// sum are read independently, so a histogram snapshot taken mid-storm
// may be internally off by in-flight observations — totals are
// reconciled from the bucket counts, which are the merge substrate).
func (r *Registry) Snapshot(rank int) Snapshot {
	s := Snapshot{
		Rank:       rank,
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
			hs.Count += hs.Counts[i]
		}
		s.Histograms[name] = hs
	}
	return s
}

// Merge folds snapshots into one: counters, gauges, and histogram
// buckets sum; histograms present in several snapshots must agree on
// bounds. The merged snapshot carries ProcessRank.
func Merge(snaps ...Snapshot) (Snapshot, error) {
	out := Snapshot{
		Rank:       ProcessRank,
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, s := range snaps {
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			out.Gauges[name] += v
		}
		for name, h := range s.Histograms {
			acc, ok := out.Histograms[name]
			if !ok {
				acc = HistogramSnapshot{
					Bounds: append([]float64(nil), h.Bounds...),
					Counts: make([]int64, len(h.Counts)),
				}
			}
			if !equalBounds(acc.Bounds, h.Bounds) || len(acc.Counts) != len(h.Counts) {
				return Snapshot{}, fmt.Errorf(
					"obs: histogram %q: mismatched bounds across snapshots (rank %d)", name, s.Rank)
			}
			for i, c := range h.Counts {
				acc.Counts[i] += c
			}
			acc.Count += h.Count
			acc.Sum += h.Sum
			out.Histograms[name] = acc
		}
	}
	return out, nil
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
