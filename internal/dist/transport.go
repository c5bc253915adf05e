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
)

// Transport is the retrying HTTP client every worker↔coordinator call
// goes through: bounded attempts, exponential backoff with jitter,
// per-call timeouts, and a seam for the chaos injector's network fault
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
	// onRetry observes each retry (for metrics/tracing); may be nil.
	onRetry func(path string, err error)
}

// TransportConfig tunes a Transport; zero values pick the defaults.
type TransportConfig struct {
	// Attempts bounds tries per call (default 5).
	Attempts int
	// Backoff is the first retry delay, doubling per attempt with ±50%
	// jitter, capped at 1s (default 10ms).
	Backoff time.Duration
	// Timeout bounds each individual attempt (default 2s).
	Timeout time.Duration
	// Chaos, when non-nil, injects network faults into outgoing calls.
	Chaos *chaos.Injector
	// OnRetry observes each retry with the call path and the error that
	// caused it.
	OnRetry func(path string, err error)
	// Seed drives the backoff jitter; 0 derives one from the base URL so
	// two workers never share a jitter sequence.
	Seed int64
}

// NewTransport returns a transport for the coordinator at base
// ("host:port" or "http://host:port").
func NewTransport(base string, cfg TransportConfig) *Transport {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 5
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		for _, c := range base {
			seed = seed*131 + int64(c)
		}
	}
	return &Transport{
		base:     strings.TrimSuffix(base, "/"),
		hc:       &http.Client{},
		attempts: cfg.Attempts,
		backoff:  cfg.Backoff,
		timeout:  cfg.Timeout,
		inj:      cfg.Chaos,
		rng:      rand.New(rand.NewSource(seed)),
		onRetry:  cfg.OnRetry,
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

func (e *remoteError) transient() bool { return e.status >= 500 }

// IsRejected reports whether err is a permanent coordinator rejection
// (4xx), as opposed to a transport fault a retry could have absorbed.
func IsRejected(err error) bool {
	re, ok := err.(*remoteError)
	return ok && !re.transient()
}

func transient(err error) bool {
	if re, ok := err.(*remoteError); ok {
		return re.transient()
	}
	// Connection errors, timeouts and injected chaos faults are all
	// worth retrying; chaos marked permanent models a hard failure.
	if chaos.IsInjected(err) {
		return chaos.IsTransient(err)
	}
	return true
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
			if t.onRetry != nil {
				t.onRetry(path, lastErr)
			}
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
	d := t.backoff << uint(attempt-2)
	if d > time.Second {
		d = time.Second
	}
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
