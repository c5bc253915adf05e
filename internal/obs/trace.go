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
// checkpoint machinery, and worker scheduling.
const (
	EvExecStart EventKind = iota
	EvExecEnd
	EvDecision
	EvBacktrack
	EvBugFound
	EvCheckpointWrite
	EvCheckpointRetry
	EvCheckpointQuarantine
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
	// (submit, start on a pool worker, terminal states and a
	// restart-recovery adoption), plus journal appends that survived only
	// after retries.
	EvJobSubmit
	EvJobStart
	EvJobDone
	EvJobFail
	EvJobCancel
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
// messages, checkpoint paths, job ids), never on the per-step hot path.
type Event struct {
	T      time.Duration // since the tracer was created
	Worker int           // worker index; -1 is the engine/coordinator
	Kind   EventKind
	A, B   int64
	S      string
}

// ring is one worker's bounded event buffer. It drains to the sink as
// JSONL when full, so recording stays O(1) and allocation-free between
// drains.
type ring struct {
	mu  sync.Mutex
	buf []Event
	n   int // the total number of events ever recorded
}

// Tracer records structured exploration events into one bounded ring per
// worker (plus one for the engine itself) and drains them to a JSONL sink.
// Record and RecordS never allocate; JSON encoding happens only when a
// ring drains or Flush is called. All methods are safe for concurrent use
// and safe on a nil receiver.
type Tracer struct {
	start time.Time
	rings []ring // rings[0] is the engine; rings[i+1] is worker i

	sinkMu sync.Mutex
	sink   io.Writer
	sinkNB []byte // scratch line buffer, reused across drains
	err    error  // first sink write error; latches and silences the sink
}

// NewTracer returns a tracer for the given worker count, with capacity
// events buffered per ring, draining as JSON lines to sink, which must not
// be nil.
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
		// Full: ship the buffered events out as JSONL and start the ring
		// over. The sink lock is only ever taken with one ring lock held,
		// so rings never deadlock each other.
		t.drain(r.buf)
		r.buf = r.buf[:0]
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
			// error and stop writing. Recording goes on; drains discard.
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

// Flush drains every ring to the sink. Call it now and then and at run end
// so the JSONL stream stays fresh without the rings having to fill first.
func (t *Tracer) Flush() {
	if t == nil {
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

// Total returns the total number of events ever recorded across all
// rings (including events already drained).
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
