package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// Transport is the retrying HTTP client every worker↔coordinator call
// goes through: five attempts, exponential backoff from 10ms with jitter,
// two seconds an attempt, and a seam for the chaos injector's network fault
// classes (drop, delay, duplicate, partition — 5xx is injected server
// side but retried here). Permanent failures (4xx protocol rejections)
// surface immediately; everything else is presumed transient.
type Transport struct {
	base     string
	hc       *http.Client
	attempts int
	backoff  time.Duration
	timeout  time.Duration
	inj      *chaos.Injector

	jmu sync.Mutex
	rng *rand.Rand

	retries atomic.Int64
	// retried counts the same retries where metrics are read; may be nil.
	retried *obs.Counter
}

// NewTransport returns a transport for the coordinator at base
// ("host:port" or "http://host:port"), injecting inj's network faults and
// counting retries on retried (either may be nil). The backoff jitter is
// seeded from base.
func NewTransport(base string, inj *chaos.Injector, retried *obs.Counter) *Transport {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	var seed int64
	for _, c := range base {
		seed = seed*131 + int64(c)
	}
	return &Transport{
		base:     strings.TrimSuffix(base, "/"),
		hc:       &http.Client{},
		attempts: 5,
		backoff:  10 * time.Millisecond,
		timeout:  2 * time.Second,
		inj:      inj,
		rng:      rand.New(rand.NewSource(seed)),
		retried:  retried,
	}
}

// Retries returns the cumulative number of retried attempts.
func (t *Transport) Retries() int { return int(t.retries.Load()) }

// remoteError is a non-2xx response from the coordinator. Only 5xx are
// retryable; a 4xx is the coordinator rejecting the request itself
// (digest mismatch, malformed body) and retrying cannot fix it.
type remoteError struct {
	status int
	body   string
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("coordinator returned %d: %s", e.status, strings.TrimSpace(e.body))
}

// IsRejected reports whether err is a permanent coordinator rejection
// (4xx), as opposed to a transport fault a retry could have absorbed.
func IsRejected(err error) bool {
	re, ok := err.(*remoteError)
	return ok && re.status < 500
}

// transient: 5xx, connection errors, timeouts and injected chaos faults are
// all worth retrying; chaos marked permanent models a hard failure.
func transient(err error) bool {
	if chaos.IsInjected(err) {
		return chaos.IsTransient(err)
	}
	return !IsRejected(err)
}

// Call POSTs req as JSON to path and decodes the response into resp,
// retrying transient failures with backoff. Callers make calls
// idempotent via request IDs, so a retry after a lost response (the
// request may have been applied!) is safe.
func (t *Transport) Call(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("dist: encoding %s request: %w", path, err)
	}
	var lastErr error
	for attempt := 1; attempt <= t.attempts; attempt++ {
		if attempt > 1 {
			t.retries.Add(1)
			t.retried.Inc()
			time.Sleep(t.retryDelay(attempt))
		}
		lastErr = t.once(path, body, resp)
		if lastErr == nil {
			return nil
		}
		if !transient(lastErr) {
			break
		}
	}
	return lastErr
}

// retryDelay is exponential backoff with ±50% jitter, capped at 1s.
func (t *Transport) retryDelay(attempt int) time.Duration {
	d := min(t.backoff<<uint(attempt-2), time.Second)
	t.jmu.Lock()
	j := time.Duration(t.rng.Int63n(int64(d) + 1))
	t.jmu.Unlock()
	return d/2 + j
}

// once is a single attempt: chaos faults first (a dropped call never
// reaches the wire, exactly like a lost packet), then the real POST. A
// chaos duplicate fires the request a second time and discards the
// second response, exercising the coordinator's idempotency.
func (t *Transport) once(path string, body []byte, resp any) error {
	if err := t.inj.NetDrop(); err != nil {
		return err
	}
	if d := t.inj.NetDelay(); d > 0 {
		time.Sleep(d)
	}
	if t.inj.NetDup() {
		t.post(path, body) // the duplicate's answer, or failure, is nobody's
	}
	raw, err := t.post(path, body)
	if err != nil {
		return err
	}
	if resp == nil {
		return nil
	}
	if err := json.Unmarshal(raw, resp); err != nil {
		return fmt.Errorf("dist: decoding %s response: %w", path, err)
	}
	return nil
}

func (t *Transport) post(path string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), t.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(res.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if res.StatusCode/100 != 2 {
		return nil, &remoteError{status: res.StatusCode, body: string(raw)}
	}
	return raw, nil
}
