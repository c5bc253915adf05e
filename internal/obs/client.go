package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// Client is the one HTTP client of the repository, the other end of Server: a
// worker's turns at the coordinator and a job client's calls both go through
// Call. It speaks JSON and has one policy. A transient failure — connection
// error, timeout, 5xx, injected chaos — is retried with jittered exponential
// backoff (10ms doubling to a second) until the caller's context ends, so a
// caller rides through a restarted server by doing nothing. A 429 is the
// server saying "not accepted, come back in Retry-After", and is waited out.
// Any other 4xx is the request itself refused, and is final (IsRejected).
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration // of one attempt
	backoff time.Duration // before the first retry
	maxBody int           // a response over it is an error, never a truncated read
	inj     *chaos.Injector

	// retries is this client's own count; retried is the same count where
	// metrics are read — a registry's counter, which others may share. May be nil.
	retries atomic.Int64
	retried *Counter
}

// NewClient returns a client for the server at base ("host:port" or a URL)
// that gives one attempt timeout — a request that parks at the server asks for
// half of it at most. inj's network fault classes (drop, delay, duplicate,
// partition — 5xx is injected server side and retried here) are applied to
// every attempt and retries are counted on retried; either may be nil.
func NewClient(base string, timeout time.Duration, inj *chaos.Injector, retried *Counter) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		base:    strings.TrimSuffix(base, "/"),
		hc:      &http.Client{},
		timeout: timeout,
		backoff: 10 * time.Millisecond,
		maxBody: 64 << 20,
		inj:     inj,
		retried: retried,
	}
}

// Retries returns the cumulative number of transient failures answered with
// another attempt.
func (c *Client) Retries() int { return int(c.retries.Load()) }

// statusError is an answer that is itself the failure: a non-2xx status, or a
// 2xx whose body is over the cap or does not decode.
type statusError struct {
	call       string
	code       int
	msg        string
	retryAfter time.Duration // of a 429
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s: %d %s: %s", e.call, e.code, http.StatusText(e.code), e.msg)
}

// IsRejected reports whether err is the server refusing the request itself
// (4xx), as opposed to a fault a retry could have absorbed.
func IsRejected(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code < 500
}

// transient: everything but a rejection is worth another attempt, except chaos
// marked permanent, which models a hard failure.
func transient(err error) bool {
	if chaos.IsInjected(err) {
		return chaos.IsTransient(err)
	}
	return !IsRejected(err)
}

// Call sends in as JSON (nil = no body) and decodes the answer into out (nil =
// discarded), under the policy above. The request may arrive more than once —
// a retry after a lost response, a chaos duplicate — so it must be a read, or
// carry an ID the server applies once.
func (c *Client) Call(ctx context.Context, method, path string, in, out any) error {
	return c.call(ctx, method, path, in, out, false)
}

// CallOnce is Call for a request that is neither: only an answer that says it
// was not accepted (429) is sent again, and a failure that leaves its fate
// unknown is returned.
func (c *Client) CallOnce(ctx context.Context, method, path string, in, out any) error {
	return c.call(ctx, method, path, in, out, true)
}

func (c *Client) call(ctx context.Context, method, path string, in, out any, once bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("encoding %s %s: %w", method, path, err)
		}
	}
	for failed := 0; ; {
		err := c.attempt(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		var wait time.Duration
		var se *statusError
		switch {
		case errors.As(err, &se) && se.code == http.StatusTooManyRequests:
			wait = se.retryAfter
		case once || !transient(err):
			return err
		default:
			failed++
			wait = c.retryDelay(failed)
			c.retries.Add(1)
			c.retried.Inc()
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("%w (gave up: %v)", err, context.Cause(ctx))
		}
	}
}

// retryDelay is exponential backoff with ±50% jitter, capped at 1s.
func (c *Client) retryDelay(failed int) time.Duration {
	d := min(c.backoff<<uint(min(failed-1, 16)), time.Second)
	return d/2 + time.Duration(rand.Int63n(int64(d)+1))
}

// attempt is one try: chaos faults first (a dropped call never reaches the
// wire, exactly like a lost packet), then the real request. A chaos duplicate
// fires the request a second time and discards the first answer, exercising
// the server's idempotency.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	if err := c.inj.NetDrop(); err != nil {
		return err
	}
	if d := c.inj.NetDelay(); d > 0 {
		time.Sleep(d)
	}
	if c.inj.NetDup() {
		c.do(ctx, method, path, body) // the duplicate's answer, or failure, is nobody's
	}
	raw, err := c.do(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return &statusError{call: method + " " + path, code: http.StatusOK, msg: fmt.Sprintf("undecodable response: %v", err)}
	}
	return nil
}

func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(res.Body, int64(c.maxBody)+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > c.maxBody {
		return nil, &statusError{call: method + " " + path, code: res.StatusCode, msg: fmt.Sprintf("response over %d bytes", c.maxBody)}
	}
	if res.StatusCode/100 == 2 {
		return raw, nil
	}
	se := &statusError{call: method + " " + path, code: res.StatusCode, msg: strings.TrimSpace(string(raw)), retryAfter: time.Second}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		se.msg = e.Error
	}
	if secs, err := strconv.Atoi(res.Header.Get("Retry-After")); err == nil && secs > 0 {
		se.retryAfter = time.Duration(secs) * time.Second
	}
	return nil, se
}
