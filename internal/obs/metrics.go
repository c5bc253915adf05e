// Package obs is the checker's observability subsystem: a metrics
// registry whose instruments are zero-alloc (and, when disabled,
// near-zero-cost) on the exploration hot path, a structured exploration
// event trace recorded into bounded per-worker ring buffers with a JSONL
// sink, and a live status server exposing /metrics (Prometheus text
// format), /statusz (JSON run status) and /debug/pprof.
//
// The design contract with internal/core is nil-safety all the way down:
// a nil *Registry hands out nil instruments, and every method on a nil
// *Counter, *Gauge, *Histogram or *Tracer is a no-op. Instrumented code
// therefore never branches on "is observability on" — it just calls, and
// with observability off each call compiles to a nil check and return.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and safe on a nil receiver (no-op).
type Counter struct {
	v    atomic.Int64
	help string
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use and safe on a nil receiver (no-op).
type Gauge struct {
	v    atomic.Int64
	help string
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram. Bucket bounds are chosen at
// registration and never change, so Observe is an array walk plus two
// atomic updates — no allocation, no locking. Safe on a nil receiver.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, updated by CAS
	help   string
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry names and serves a set of instruments. The zero value is not
// usable; use NewRegistry. A nil *Registry is the "observability off"
// mode: its constructors return nil instruments and its exporters write
// nothing.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
	names   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// register returns the existing metric under name, or stores and returns
// fresh. Re-registering a name with a different instrument type is a
// programming error worth failing loudly on.
func (r *Registry) register(name string, fresh any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if fmt.Sprintf("%T", m) != fmt.Sprintf("%T", fresh) {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different type (%T vs %T)", name, fresh, m))
		}
		return m
	}
	r.metrics[name] = fresh
	r.names = append(r.names, name)
	sort.Strings(r.names)
	return fresh
}

// Counter registers (or returns the existing) counter under name. A nil
// registry returns nil, which is a valid no-op instrument.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, &Counter{help: help}).(*Counter)
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, &Gauge{help: help}).(*Gauge)
}

// Histogram registers (or returns the existing) histogram under name,
// with the given ascending upper bucket bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
		help:   help,
	}
	return r.register(name, h).(*Histogram)
}

// formatBound renders a bucket bound the way Prometheus expects ("1",
// "2.5", "+Inf").
func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format, sorted by name, so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	metrics := make([]any, len(names))
	for i, n := range names {
		metrics[i] = r.metrics[n]
	}
	r.mu.Unlock()

	for i, name := range names {
		switch m := metrics[i].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				name, m.help, name, name, m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
				name, m.help, name, name, m.Value()); err != nil {
				return err
			}
		case *Histogram:
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, m.help, name); err != nil {
				return err
			}
			var cum int64
			for j := range m.counts {
				cum += m.counts[j].Load()
				bound := math.Inf(1)
				if j < len(m.bounds) {
					bound = m.bounds[j]
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(bound), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
				name, strconv.FormatFloat(m.Sum(), 'g', -1, 64), name, m.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot returns a flat name → value view of the registry: counters
// and gauges map directly, histograms contribute <name>_count and
// <name>_sum. This is the shape scripts/bench.sh embeds into the
// BENCH_<date>.json perf trajectory.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			out[name] = float64(m.Value())
		case *Gauge:
			out[name] = float64(m.Value())
		case *Histogram:
			out[name+"_count"] = float64(m.Count())
			out[name+"_sum"] = m.Sum()
		}
	}
	return out
}
