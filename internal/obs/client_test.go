package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTransportRetriesTransientFaults: 5xx and connection failures are
// retried with backoff; a 4xx surfaces immediately as a rejection.
func TestTransportRetriesTransientFaults(t *testing.T) {
	var mu sync.Mutex
	fails := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if fails > 0 {
			fails--
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	ctx := context.Background()
	retried := NewRegistry().Counter("retried", "")
	tr := NewClient(srv.URL, time.Second, nil, retried)
	tr.backoff = time.Millisecond
	var resp struct {
		OK bool `json:"ok"`
	}
	if err := tr.Call(ctx, http.MethodPost, "/x", struct{}{}, &resp); err != nil {
		t.Fatalf("Call after transient 503s: %v", err)
	}
	if !resp.OK {
		t.Fatal("response not decoded")
	}
	if tr.Retries() != 2 || retried.Value() != 2 {
		t.Fatalf("Retries = %d, counter %d, want 2 and 2", tr.Retries(), retried.Value())
	}

	rej := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusConflict)
	}))
	defer rej.Close()
	tr2 := NewClient(rej.URL, time.Second, nil, nil)
	err := tr2.Call(ctx, http.MethodPost, "/x", struct{}{}, nil)
	if err == nil || !IsRejected(err) {
		t.Fatalf("409 should be a permanent rejection, got %v", err)
	}
	if tr2.Retries() != 0 {
		t.Fatalf("a permanent 4xx was retried %d time(s)", tr2.Retries())
	}
}

// TestClientPolicy is the rest of the one policy: retrying ends with the
// context and says why; a 429 is waited out by Call and CallOnce alike, and is
// the only answer CallOnce sends again; a body over the cap is an error that
// says so, and so is one that does not decode — neither is retried.
func TestClientPolicy(t *testing.T) {
	t.Run("the context ends the retrying", func(t *testing.T) {
		c := NewClient("127.0.0.1:1", 50*time.Millisecond, nil, nil)
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		err := c.Call(ctx, http.MethodGet, "/x", nil, nil)
		if err == nil || IsRejected(err) || !strings.Contains(err.Error(), "gave up") {
			t.Fatalf("err = %v, want the connection error and that the client gave up", err)
		}
		if d := time.Since(start); d < 150*time.Millisecond || d > 5*time.Second {
			t.Fatalf("gave up after %v, want the context's 200ms", d)
		}
		if c.Retries() == 0 {
			t.Fatal("a dead address was tried once")
		}
	})

	t.Run("a 429 is waited out", func(t *testing.T) {
		for name, call := range map[string]func(*Client, context.Context, string, string, any, any) error{
			"Call": (*Client).Call, "CallOnce": (*Client).CallOnce,
		} {
			var hits atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hits.Add(1) == 1 {
					w.Header().Set("Retry-After", "1")
					http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
					return
				}
				w.Write([]byte(`{}`))
			}))
			c := NewClient(srv.URL, time.Second, nil, nil)
			start := time.Now()
			if err := call(c, context.Background(), http.MethodPost, "/jobs", nil, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := time.Since(start); hits.Load() != 2 || d < time.Second {
				t.Fatalf("%s: %d requests in %v, want 2 with the Retry-After second between them", name, hits.Load(), d)
			}
			if c.Retries() != 0 {
				t.Fatalf("%s: a 429 was counted as %d transient retries", name, c.Retries())
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			hits.Store(0)
			err := call(c, ctx, http.MethodPost, "/jobs", nil, nil)
			cancel()
			if !IsRejected(err) || !strings.Contains(err.Error(), "429") || !strings.Contains(err.Error(), "queue full") {
				t.Fatalf("%s: a 429 outlasting the context is %v, want the server's message", name, err)
			}
			srv.Close()
		}
	})

	t.Run("CallOnce sends once", func(t *testing.T) {
		var hits atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			http.Error(w, "down", http.StatusBadGateway)
		}))
		defer srv.Close()
		c := NewClient(srv.URL, time.Second, nil, nil)
		if err := c.CallOnce(context.Background(), http.MethodPost, "/jobs", nil, nil); err == nil || IsRejected(err) {
			t.Fatalf("err = %v, want the 502", err)
		}
		if hits.Load() != 1 || c.Retries() != 0 {
			t.Fatalf("%d requests, %d retries, want 1 and 0", hits.Load(), c.Retries())
		}
	})

	t.Run("an answer that cannot be read is final", func(t *testing.T) {
		var hits atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Write([]byte(`["` + strings.Repeat("x", 4096) + `"`)) // 4 KB, and unterminated
		}))
		defer srv.Close()
		c := NewClient(srv.URL, time.Second, nil, nil)
		var out []string
		err := c.Call(context.Background(), http.MethodGet, "/big", nil, &out)
		if err == nil || !strings.Contains(err.Error(), "undecodable") {
			t.Fatalf("err = %v, want an undecodable response", err)
		}
		c.maxBody = 1024
		err = c.Call(context.Background(), http.MethodGet, "/big", nil, &out)
		if err == nil || !strings.Contains(err.Error(), "response over 1024 bytes") {
			t.Fatalf("err = %v, want the cap named, not a truncated body's decode error", err)
		}
		if hits.Load() != 2 || c.Retries() != 0 {
			t.Fatalf("%d requests, %d retries, want 2 and 0", hits.Load(), c.Retries())
		}
	})
}
