package obs

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrency hammers one registry from many goroutines —
// registration races, increments and exports all at once — and then
// checks nothing was lost. Run under -race this is the data-race proof
// for the whole instrument layer.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every goroutine re-registers the same names: they must all
			// get the same instruments back.
			c := reg.Counter("c", "test counter")
			ga := reg.Gauge("g", "test gauge")
			h := reg.Histogram("h", "test histogram", []float64{10, 100})
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Set(int64(i))
				h.Observe(float64(i % 200))
				if i%1000 == 0 {
					var buf bytes.Buffer
					if err := reg.WritePrometheus(&buf); err != nil {
						t.Errorf("WritePrometheus: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c", "").Value(); got != goroutines*perG {
		t.Fatalf("counter lost increments: got %d want %d", got, goroutines*perG)
	}
	h := reg.Histogram("h", "", nil)
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram lost samples: got %d want %d", got, goroutines*perG)
	}
	var wantSum float64
	for i := 0; i < perG; i++ {
		wantSum += float64(i % 200)
	}
	wantSum *= goroutines
	if got := h.Sum(); math.Abs(got-wantSum) > 0.5 {
		t.Fatalf("histogram sum drifted: got %g want %g", got, wantSum)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", []float64{1})
	var tr *Tracer
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	tr.Record(0, EvExecStart, 1, 2)
	tr.RecordS(0, EvBugFound, 1, "x")
	tr.Flush()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Err() != nil || tr.Total() != 0 {
		t.Fatal("nil instruments must observe nothing")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry must export nothing: %q %v", buf.String(), err)
	}
	if len(reg.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var srv *Server
	if srv.Addr() != "" || srv.Close() != nil {
		t.Fatal("nil server must be inert")
	}
}

// TestHistogramBucketBoundaries pins the le-bucket semantics: a sample
// equal to a bound lands in that bound's bucket (Prometheus "less than
// or equal"), one epsilon above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "", []float64{1, 10, 100})
	for _, v := range []float64{0, 1, 1.0001, 10, 10.5, 100, 101, 1e9} {
		h.Observe(v)
	}
	// Per-bound cumulative counts: le=1 → {0,1}; le=10 → +{1.0001,10};
	// le=100 → +{10.5,100}; +Inf → +{101,1e9}.
	wantCum := []int64{2, 4, 6, 8}
	for i, want := range wantCum {
		if got := h.BucketCount(i); got != want {
			t.Errorf("bucket %d cumulative: got %d want %d", i, got, want)
		}
	}
	if got := h.Count(); got != 8 {
		t.Errorf("count: got %d want 8", got)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("m", "")
}

// TestWritePrometheusGolden locks the exposition format down: sorted
// names, HELP/TYPE lines, cumulative le buckets with +Inf, _sum/_count.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_total", "last by name").Add(7)
	reg.Gauge("aa_gauge", "first by name").Set(-3)
	h := reg.Histogram("mm_hist", "middle", []float64{1, 2.5})
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(99)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_gauge first by name
# TYPE aa_gauge gauge
aa_gauge -3
# HELP mm_hist middle
# TYPE mm_hist histogram
mm_hist_bucket{le="1"} 1
mm_hist_bucket{le="2.5"} 2
mm_hist_bucket{le="+Inf"} 3
mm_hist_sum 101.5
mm_hist_count 3
# HELP zz_total last by name
# TYPE zz_total counter
zz_total 7
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", buf.String(), want)
	}

	snap := reg.Snapshot()
	if snap["zz_total"] != 7 || snap["aa_gauge"] != -3 ||
		snap["mm_hist_count"] != 3 || snap["mm_hist_sum"] != 101.5 {
		t.Fatalf("snapshot mismatch: %v", snap)
	}
}

// TestTracerSinkDrain checks the JSONL sink receives every event once a
// ring fills (plus the Flush tail) as valid one-object lines.
func TestTracerSinkDrain(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(2, 4, &buf)
	for i := 0; i < 10; i++ {
		tr.Record(i%2, EvExecEnd, int64(i), int64(2*i))
	}
	tr.RecordS(-1, EvChaosFault, 0, `cla"ss`)
	tr.Flush()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 11 {
		t.Fatalf("sink got %d lines, want 11:\n%s", len(lines), buf.String())
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, `{"t_us":`) || !strings.HasSuffix(ln, "}") {
			t.Fatalf("not a JSON object line: %q", ln)
		}
	}
	if !strings.Contains(buf.String(), `"ev":"chaos-fault"`) || !strings.Contains(buf.String(), `"s":"cla\"ss"`) {
		t.Fatalf("string event not encoded: %s", buf.String())
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, fmt.Errorf("sink broken")
}

// TestTracerSinkErrorLatches: a broken sink must silence itself after
// the first error, never disturb recording.
func TestTracerSinkErrorLatches(t *testing.T) {
	w := &failWriter{}
	tr := NewTracer(1, 2, w)
	for i := 0; i < 50; i++ {
		tr.Record(0, EvDecision, int64(i), 0)
	}
	tr.Flush()
	if tr.Err() == nil {
		t.Fatal("sink error not surfaced")
	}
	if w.n != 1 {
		t.Fatalf("sink written %d times after latching, want 1", w.n)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "unknown" {
			t.Fatalf("event kind %d has no name", k)
		}
	}
}

// TestServerEndpoints boots a real server on an ephemeral port and
// exercises /metrics, /statusz and the pprof index.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cxlmc_executions_total", "execs").Add(42)
	srv, err := NewServer("127.0.0.1:0", reg, func() any {
		return map[string]int{"executions": 42}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) string {
		resp, err := client.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return sb.String()
	}

	if body := get("/metrics"); !strings.Contains(body, "cxlmc_executions_total 42") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/statusz"); !strings.Contains(body, `"executions": 42`) {
		t.Fatalf("/statusz missing status:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index unexpected:\n%s", body)
	}
	if body := get("/"); !strings.Contains(body, "/statusz") {
		t.Fatalf("index unexpected:\n%s", body)
	}
}

func TestServerBadAddrFailsFast(t *testing.T) {
	if _, err := NewServer("256.256.256.256:99999", nil, nil); err == nil {
		t.Fatal("bad address must fail at construction")
	}
}

// TestServerShutdownDrains proves the graceful-drain contract: a scrape
// that is already in flight when Shutdown is called completes with its
// full body and a 200, while connections arriving after the drain began
// are refused.
func TestServerShutdownDrains(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cxlmc_executions_total", "execs").Add(7)
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", reg, func() any {
		close(entered)
		<-release // hold the request in flight while Shutdown runs
		return map[string]int{"executions": 7}
	})
	if err != nil {
		t.Fatal(err)
	}

	type scrape struct {
		body   string
		status int
		err    error
	}
	got := make(chan scrape, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/statusz")
		if err != nil {
			got <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		got <- scrape{body: sb.String(), status: resp.StatusCode}
	}()

	<-entered // the scrape is now inside the handler
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()

	// The listener must already refuse new connections while the
	// in-flight request keeps the drain open.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("new connections still accepted during drain")
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(release)
	s := <-got
	if s.err != nil {
		t.Fatalf("in-flight scrape failed during drain: %v", s.err)
	}
	if s.status != http.StatusOK || !strings.Contains(s.body, `"executions": 7`) {
		t.Fatalf("in-flight scrape truncated: status=%d body=%q", s.status, s.body)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownClosesUnusedConnections: a connection dialled and never used
// does not hold Shutdown for net/http's 5 s grace on a new connection; one
// whose first request is still being read is answered, not cut.
func TestShutdownClosesUnusedConnections(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	unused, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer unused.Close()
	partial, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	if _, err := io.WriteString(partial, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// Both connections are accepted, and the partial one's first bytes read.
	for accepted, reading := 0, 0; accepted != 2 || reading != 1; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		accepted, reading = len(srv.unused), 0
		for c := range srv.unused {
			if c.read.Load() {
				reading++
			}
		}
		srv.mu.Unlock()
	}

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	unused.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := unused.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the unused connection read %v, want it closed (EOF)", err)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) while a request was being read", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := io.WriteString(partial, "\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(partial), nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("the request being read got (%v, %v), want a 200", resp, err)
	}
	resp.Body.Close()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown took %v", d)
	}
}

// BucketCount returns the cumulative count of samples ≤ the i-th bound
// (Prometheus "le" semantics); i == len(bounds) is the +Inf bucket.
func (h *Histogram) BucketCount(i int) int64 {
	if h == nil {
		return 0
	}
	var total int64
	for j := 0; j <= i && j < len(h.counts); j++ {
		total += h.counts[j].Load()
	}
	return total
}
