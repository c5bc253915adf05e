package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// EventKind labels one structured exploration event.
type EventKind uint8

// Exploration event kinds. The engine records these at well-defined
// points: execution boundaries, decision-tree structure changes, the
// checkpoint/governor/chaos machinery, and worker scheduling.
const (
	EvExecStart EventKind = iota
	EvExecEnd
	EvDecision
	EvBacktrack
	EvBugFound
	EvCheckpointWrite
	EvCheckpointRetry
	EvCheckpointQuarantine
	EvGovernor
	EvChaosFault
	EvSteal
	EvPark
	// Distributed-exploration events: work-unit lease lifecycle on the
	// coordinator (grant, complete, reclaim-after-expiry, stale
	// completion rejected).
	EvLeaseGrant
	EvLeaseComplete
	EvLeaseReclaim
	EvLeaseStale
	// Analysis event: a happens-before race (or crash-exposed unflushed
	// publish) reported by the dynamic detector.
	EvDataRace
	// Job-server events: the lifecycle of one submitted exploration job
	// (submit, start on a pool worker, terminal states, a retry after a
	// transient failure or degraded stop, and a restart-recovery
	// adoption), plus journal appends that survived only after retries.
	EvJobSubmit
	EvJobStart
	EvJobDone
	EvJobFail
	EvJobCancel
	EvJobRetry
	EvJobResume
	EvJobJournalRetry
	numEventKinds
)

func (k EventKind) String() string {
	switch k {
	case EvExecStart:
		return "exec-start"
	case EvExecEnd:
		return "exec-end"
	case EvDecision:
		return "decision"
	case EvBacktrack:
		return "backtrack"
	case EvBugFound:
		return "bug"
	case EvCheckpointWrite:
		return "checkpoint-write"
	case EvCheckpointRetry:
		return "checkpoint-retry"
	case EvCheckpointQuarantine:
		return "checkpoint-quarantine"
	case EvGovernor:
		return "governor"
	case EvChaosFault:
		return "chaos-fault"
	case EvSteal:
		return "steal"
	case EvPark:
		return "park"
	case EvLeaseGrant:
		return "lease-grant"
	case EvLeaseComplete:
		return "lease-complete"
	case EvLeaseReclaim:
		return "lease-reclaim"
	case EvLeaseStale:
		return "lease-stale"
	case EvDataRace:
		return "data-race"
	case EvJobSubmit:
		return "job-submit"
	case EvJobStart:
		return "job-start"
	case EvJobDone:
		return "job-done"
	case EvJobFail:
		return "job-fail"
	case EvJobCancel:
		return "job-cancel"
	case EvJobRetry:
		return "job-retry"
	case EvJobResume:
		return "job-resume"
	case EvJobJournalRetry:
		return "job-journal-retry"
	}
	return "unknown"
}

// Event is one recorded exploration event. A and B are kind-specific
// scalar payloads (e.g. the execution ordinal and step count of an
// EvExecEnd); S is a kind-specific string used only by rare events (bug
// messages, chaos fault classes), never on the per-step hot path.
type Event struct {
	T      time.Duration // since the tracer was created
	Worker int           // worker index; -1 is the engine/coordinator
	Kind   EventKind
	A, B   int64
	S      string
}

// ring is one worker's bounded event buffer. With no sink the ring wraps,
// keeping the most recent events; with a sink it drains to JSONL when
// full, so recording stays O(1) and allocation-free between drains.
type ring struct {
	mu  sync.Mutex
	buf []Event
	// n is the total number of events ever recorded; buf[n % cap] is the
	// next write position once the ring has wrapped.
	n int
}

// Tracer records structured exploration events into one bounded ring per
// worker (plus one for the engine itself), optionally draining them to a
// JSONL sink. Record and RecordS never allocate; JSON encoding happens
// only when a ring drains or Flush is called. All methods are safe for
// concurrent use and safe on a nil receiver.
type Tracer struct {
	start time.Time
	rings []ring // rings[0] is the engine; rings[i+1] is worker i

	sinkMu sync.Mutex
	sink   io.Writer
	sinkNB []byte // scratch line buffer, reused across drains
	err    error  // first sink write error; latches and silences the sink
}

// NewTracer returns a tracer for the given worker count, with capacity
// events buffered per ring. sink, when non-nil, receives drained events
// as JSON lines; when nil, each ring keeps its most recent capacity
// events (wrapping) for Events to inspect.
func NewTracer(workers, capacity int, sink io.Writer) *Tracer {
	if workers < 0 {
		workers = 0
	}
	if capacity <= 0 {
		capacity = 4096
	}
	t := &Tracer{start: time.Now(), rings: make([]ring, workers+1), sink: sink}
	for i := range t.rings {
		t.rings[i].buf = make([]Event, 0, capacity)
	}
	return t
}

// ringFor maps a worker index (-1 = engine) to its ring, clamping
// out-of-range indices to the engine ring rather than panicking.
func (t *Tracer) ringFor(worker int) *ring {
	i := worker + 1
	if i < 0 || i >= len(t.rings) {
		i = 0
	}
	return &t.rings[i]
}

// Record appends a scalar-payload event to worker's ring.
func (t *Tracer) Record(worker int, kind EventKind, a, b int64) {
	if t == nil {
		return
	}
	t.record(worker, Event{Worker: worker, Kind: kind, A: a, B: b})
}

// RecordS appends an event carrying a string payload (rare events only).
func (t *Tracer) RecordS(worker int, kind EventKind, a int64, s string) {
	if t == nil {
		return
	}
	t.record(worker, Event{Worker: worker, Kind: kind, A: a, S: s})
}

func (t *Tracer) record(worker int, ev Event) {
	ev.T = time.Since(t.start)
	r := t.ringFor(worker)
	r.mu.Lock()
	if len(r.buf) == cap(r.buf) {
		if t.sink != nil {
			// Full and drainable: ship the buffered events out as JSONL
			// and start the ring over. The sink lock is only ever taken
			// with one ring lock held, so rings never deadlock each other.
			t.drain(r.buf)
			r.buf = r.buf[:0]
		} else {
			// Full and unsinkable: wrap, overwriting the oldest event.
			r.buf[r.n%cap(r.buf)] = ev
			r.n++
			r.mu.Unlock()
			return
		}
	}
	r.buf = append(r.buf, ev)
	r.n++
	r.mu.Unlock()
}

// drain writes events to the sink as JSON lines. Called with the owning
// ring's lock held; takes the sink lock for the actual writes.
func (t *Tracer) drain(events []Event) {
	t.sinkMu.Lock()
	defer t.sinkMu.Unlock()
	if t.err != nil {
		return
	}
	for i := range events {
		t.sinkNB = appendEventJSON(t.sinkNB[:0], &events[i])
		if _, err := t.sink.Write(t.sinkNB); err != nil {
			// A broken sink must not break the exploration: latch the
			// error and stop writing. Events keep ringing in memory.
			t.err = err
			return
		}
	}
}

// appendEventJSON renders ev as one JSON line. Hand-rolled so draining a
// ring does one buffer append per event instead of one encoding/json
// round trip.
func appendEventJSON(b []byte, ev *Event) []byte {
	b = append(b, `{"t_us":`...)
	b = strconv.AppendInt(b, ev.T.Microseconds(), 10)
	b = append(b, `,"w":`...)
	b = strconv.AppendInt(b, int64(ev.Worker), 10)
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	if ev.A != 0 || ev.B != 0 {
		b = append(b, `,"a":`...)
		b = strconv.AppendInt(b, ev.A, 10)
		b = append(b, `,"b":`...)
		b = strconv.AppendInt(b, ev.B, 10)
	}
	if ev.S != "" {
		b = append(b, `,"s":`...)
		b = strconv.AppendQuote(b, ev.S)
	}
	b = append(b, '}', '\n')
	return b
}

// Flush drains every ring to the sink (if any). Call it at progress
// ticks and at run end so the JSONL stream stays fresh without the rings
// having to fill first.
func (t *Tracer) Flush() {
	if t == nil || t.sink == nil {
		return
	}
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		if len(r.buf) > 0 {
			t.drain(r.buf)
			r.buf = r.buf[:0]
		}
		r.mu.Unlock()
	}
}

// Err returns the first sink write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.sinkMu.Lock()
	defer t.sinkMu.Unlock()
	return t.err
}

// Events returns a snapshot of worker's ring in recording order (oldest
// first), reconstructing the order across a wrapped ring. Worker -1 is
// the engine ring. Intended for tests and post-mortems, not hot paths.
func (t *Tracer) Events(worker int) []Event {
	if t == nil {
		return nil
	}
	r := t.ringFor(worker)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.n > len(r.buf) && len(r.buf) == cap(r.buf) && t.sink == nil {
		// Wrapped: buf[n % cap] is the oldest event.
		at := r.n % cap(r.buf)
		out = append(out, r.buf[at:]...)
		out = append(out, r.buf[:at]...)
		return out
	}
	return append(out, r.buf...)
}

// Total returns the total number of events ever recorded across all
// rings (including events already drained or overwritten).
func (t *Tracer) Total() int {
	if t == nil {
		return 0
	}
	total := 0
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		total += r.n
		r.mu.Unlock()
	}
	return total
}
