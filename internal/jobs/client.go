package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Client talks to a job server over its REST API. The zero value is not
// usable; construct with NewClient.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the server at base ("host:port" or a
// full "http://..." URL).
func NewClient(base string) *Client {
	if len(base) < 7 || base[:7] != "http://" && (len(base) < 8 || base[:8] != "https://") {
		base = "http://" + base
	}
	return &Client{base: base, http: &http.Client{Timeout: 30 * time.Second}}
}

// decode reads a JSON response body into v, turning non-2xx statuses
// into errors carrying the server's message.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("jobs: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("jobs: %s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("jobs: %s", resp.Status)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

// Submit submits a job spec, returning its accepted Status. A 429 (queue
// full) is retried after the server's Retry-After hint until ctx
// expires; other errors return immediately.
func (c *Client) Submit(ctx context.Context, spec Spec) (Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return Status{}, fmt.Errorf("jobs: encoding spec: %w", err)
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
		if err != nil {
			return Status{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(req)
		if err != nil {
			return Status{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				wait = time.Duration(secs) * time.Second
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return Status{}, fmt.Errorf("jobs: queue full and %w", ctx.Err())
			}
		}
		var st Status
		if err := decode(resp, &st); err != nil {
			return Status{}, err
		}
		return st, nil
	}
}

// Status fetches one job's full status (spec, progress, result).
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id, nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return Status{}, err
	}
	var st Status
	if err := decode(resp, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// List fetches every job's summary status, optionally filtered by
// tenant ("" = all).
func (c *Client) List(ctx context.Context, tenant string) ([]Status, error) {
	u := c.base + "/jobs"
	if tenant != "" {
		u += "?tenant=" + url.QueryEscape(tenant)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	var out []Status
	if err := decode(resp, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs/"+id+"/cancel", nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return Status{}, err
	}
	var st Status
	if err := decode(resp, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Status, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return Status{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}
