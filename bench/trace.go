package bench

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer's public
// function. Start and End are nanoseconds since the recording process
// began tracing; Parent is the index of the enclosing span in the same
// workload's list (-1 for an op's root); spans of one op share Op. A
// span's self time is its duration minus the part its children cover.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: untraced ops go through the same code with tr == nil. The
// mutex is for dist_2w, whose two workers are spanned from their own
// goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; NaN-free).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the distance between the quartiles as a share of the
// median: the noise -compare weighs a difference against.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}
