package jobs

import (
	"context"
	"net/http"
	"net/url"
	"time"

	"repro/internal/obs"
)

// Client talks to a job server over its REST API, through obs.Client and
// under its policy: a read is made again until it is answered or ctx ends, so
// Status, List and Wait ride through a server killed and restarted on the
// same address. The zero value is not usable; construct with NewClient.
type Client struct{ c *obs.Client }

// NewClient returns a client for the server at base ("host:port" or a
// full "http://..." URL).
func NewClient(base string) *Client {
	return &Client{obs.NewClient(base, callTimeout, nil, nil)}
}

// callTimeout is what one attempt at a call may take; a Wait parks for half of
// it at most.
const callTimeout = 30 * time.Second

// Submit submits a job spec, returning its accepted Status. It is sent at
// most once: a submission carries no ID the server could recognise a second
// delivery by, and one made twice is a job run twice. A 429 (queue full) says
// it was not accepted and is sent again after the server's Retry-After hint
// until ctx expires; any other failure returns immediately, a connection lost
// after the request left among them.
func (c *Client) Submit(ctx context.Context, spec Spec) (st Status, err error) {
	err = c.c.CallOnce(ctx, http.MethodPost, "/jobs", spec, &st)
	return st, err
}

// Status fetches one job's full status (spec, progress, result).
func (c *Client) Status(ctx context.Context, id string) (st Status, err error) {
	err = c.c.Call(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

// List fetches every job's summary status, optionally filtered by
// tenant ("" = all).
func (c *Client) List(ctx context.Context, tenant string) (out []Status, err error) {
	path := "/jobs"
	if tenant != "" {
		path += "?tenant=" + url.QueryEscape(tenant)
	}
	err = c.c.Call(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Cancel requests cancellation of a queued or running job; like Submit it is
// sent once.
func (c *Client) Cancel(ctx context.Context, id string) (st Status, err error) {
	err = c.c.CallOnce(ctx, http.MethodPost, "/jobs/"+id+"/cancel", nil, &st)
	return st, err
}

// Wait returns the job's full status once it is terminal, or ctx's end. The
// waiting happens at the server: a status request parks there for up to park
// (≤ 0, or more than half an attempt's timeout: that half) and is answered the
// moment the job finishes; an answer that is not terminal means ask again now.
func (c *Client) Wait(ctx context.Context, id string, park time.Duration) (st Status, err error) {
	if park <= 0 || park > callTimeout/2 {
		park = callTimeout / 2
	}
	for err == nil && !st.State.Terminal() {
		st = Status{}
		err = c.c.Call(ctx, http.MethodGet, "/jobs/"+id+"?wait="+park.String(), nil, &st)
	}
	return st, err
}
