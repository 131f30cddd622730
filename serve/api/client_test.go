package api

// Client option tests: transport failures retry up to the WithRetry
// budget, structured server rejections (*Error) are authoritative and
// never retried, WithTimeout bounds one attempt, and the trace header
// rides every attempt by default.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// flakyTransport fails the first n round-trips with a transport error,
// then delegates to the real transport.
type flakyTransport struct {
	mu    sync.Mutex
	fails int
	calls int
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls++
	fail := f.calls <= f.fails
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("injected transport failure %d", f.calls)
	}
	return http.DefaultTransport.RoundTrip(req)
}

func TestClientRetriesTransportFailures(t *testing.T) {
	var traces []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traces = append(traces, r.Header.Get(TraceHeader))
		fmt.Fprint(w, `{"results":[true]}`)
	}))
	defer ts.Close()
	ft := &flakyTransport{fails: 2}
	c := New(ts.URL,
		WithHTTPClient(&http.Client{Transport: ft}),
		WithRetry(3))
	c.backoff = time.Microsecond
	ctx := WithTrace(context.Background(), "trace-123")
	got, err := c.Connected(ctx, &QueryRequest{Pairs: [][2]int32{{0, 1}}})
	if err != nil || len(got) != 1 || !got[0] {
		t.Fatalf("Connected after flaky transport: %v %v", got, err)
	}
	if ft.calls != 3 {
		t.Fatalf("attempts = %d, want 3 (2 failures + success)", ft.calls)
	}
	// The surviving attempt carried the trace header (default-on).
	if len(traces) != 1 || traces[0] != "trace-123" {
		t.Fatalf("traces = %v", traces)
	}
}

func TestClientRetryBudgetBounded(t *testing.T) {
	ft := &flakyTransport{fails: 100}
	c := New("http://127.0.0.1:1",
		WithHTTPClient(&http.Client{Transport: ft}),
		WithRetry(2))
	c.backoff = time.Microsecond
	if _, err := c.Connected(context.Background(), &QueryRequest{}); err == nil {
		t.Fatal("dead transport accepted")
	}
	if ft.calls != 3 {
		t.Fatalf("attempts = %d, want 1+2", ft.calls)
	}
	// Without WithRetry there is exactly one attempt.
	ft2 := &flakyTransport{fails: 100}
	c2 := New("http://127.0.0.1:1", WithHTTPClient(&http.Client{Transport: ft2}))
	if _, err := c2.Connected(context.Background(), &QueryRequest{}); err == nil {
		t.Fatal("dead transport accepted")
	}
	if ft2.calls != 1 {
		t.Fatalf("attempts without WithRetry = %d", ft2.calls)
	}
}

func TestClientNeverRetriesServerErrors(t *testing.T) {
	var mu sync.Mutex
	requests := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		mu.Unlock()
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"code":"bad_vertex","message":"nope"}}`)
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetry(5))
	c.backoff = time.Microsecond
	_, err := c.Connected(context.Background(), &QueryRequest{})
	var se *Error
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest || se.Info.Code != "bad_vertex" {
		t.Fatalf("server rejection: %v", err)
	}
	if requests != 1 {
		t.Fatalf("authoritative rejection retried: %d requests", requests)
	}
}

func TestClientPerAttemptTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)
	c := New(ts.URL, WithTimeout(30*time.Millisecond))
	start := time.Now()
	if _, err := c.Connected(context.Background(), &QueryRequest{}); err == nil {
		t.Fatal("stalled server answered")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

// TestClientNilHTTPClient proves WithHTTPClient(nil) falls back to
// http.DefaultClient instead of leaving the client without a transport.
func TestClientNilHTTPClient(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"results":[false]}`)
	}))
	defer ts.Close()
	got, err := New(ts.URL, WithHTTPClient(nil)).Connected(context.Background(), &QueryRequest{})
	if err != nil || len(got) != 1 || got[0] {
		t.Fatalf("nil http.Client: %v %v", got, err)
	}
}
