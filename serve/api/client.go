package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Error is a structured error a server answered with: the HTTP status
// plus the decoded envelope. A *Error is authoritative — the upstream
// received the request and rejected it — as opposed to the plain errors
// Client returns for transport failures (connection refused, truncated
// or non-JSON bodies), which a fan-out tier may retry on another
// replica.
type Error struct {
	Status int
	Info   ErrorInfo
}

func (e *Error) Error() string {
	return fmt.Sprintf("server error %d (%s): %s", e.Status, e.Info.Code, e.Info.Message)
}

// defaultRetryBackoff is the delay before a retried request; each
// further retry doubles it.
const defaultRetryBackoff = 50 * time.Millisecond

// Client is the typed client of the serving API. Every tier — monolithic
// daemon, shard-affine replica, fan-out proxy — speaks the same
// protocol, so one client talks to any of them. Trace propagation is on
// by default: a trace ID installed with WithTrace on the request
// context rides the X-Ftroute-Trace header of every call.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
}

// Option configures a Client (New).
type Option func(*Client)

// WithHTTPClient issues requests through hc instead of
// http.DefaultClient. A nil hc keeps the default.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithTimeout bounds each request attempt (not the whole retried call)
// by d, layered onto whatever deadline the caller's context carries.
// Zero or negative keeps attempts unbounded.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetry retries transport-level failures — refused connections,
// timeouts, unstructured bodies — up to retries extra attempts, backing
// off exponentially between them. Structured server rejections (*Error)
// are authoritative and never retried; a fan-out tier fails them over
// to another replica instead. Zero or negative disables retrying (the
// default).
func WithRetry(retries int) Option {
	return func(c *Client) { c.retries = retries }
}

// New returns a client for the server at baseURL (scheme + host, e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		backoff: defaultRetryBackoff,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the server address the client was built with.
func (c *Client) BaseURL() string { return c.base }

// decodeResponse classifies one HTTP exchange: 2xx bodies decode into
// out, non-2xx bodies must carry the structured envelope and become a
// *Error. Anything else — a non-2xx body that does not decode to an
// envelope — is a transport-level failure.
func decodeResponse(resp *http.Response, out any) error {
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("api: reading response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err == nil && eb.Error.Code != "" {
			return &Error{Status: resp.StatusCode, Info: eb.Error}
		}
		return fmt.Errorf("api: server returned status %d with unstructured body", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("api: decoding response: %w", err)
	}
	return nil
}

// Query posts req to the named query endpoint (connected, estimate,
// route, route-forbidden) and decodes the 2xx body into out. Structured
// server rejections return a *Error; transport failures return plain
// errors (retried per WithRetry — every query endpoint is idempotent).
func (c *Client) Query(ctx context.Context, endpoint string, req *QueryRequest, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("api: encoding request: %w", err)
	}
	url := c.base + "/v1/" + endpoint
	if DebugTimingFrom(ctx) {
		url += "?" + DebugTimingParam + "=" + DebugTimingValue
	}
	return c.do(ctx, http.MethodPost, url, body, out)
}

// get fetches one GET endpoint into out.
func (c *Client) get(ctx context.Context, endpoint string, out any) error {
	return c.do(ctx, http.MethodGet, c.base+"/v1/"+endpoint, nil, out)
}

// do runs one call: per-attempt timeout, trace header, and the
// transport-failure retry loop. A *Error ends the loop immediately — the
// server received and rejected the request, so another attempt would be
// rejected identically.
func (c *Client) do(ctx context.Context, method, url string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = c.doOnce(ctx, method, url, body, out)
		var se *Error
		if lastErr == nil || errors.As(lastErr, &se) {
			return lastErr
		}
		if attempt >= c.retries || ctx.Err() != nil {
			return lastErr
		}
		select {
		case <-time.After(c.backoff << uint(attempt)):
		case <-ctx.Done():
			return lastErr
		}
	}
}

// doOnce runs one HTTP attempt under the per-attempt timeout.
func (c *Client) doOnce(ctx context.Context, method, url string, body []byte, out any) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var br io.Reader
	if body != nil {
		br = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, url, br)
	if err != nil {
		return fmt.Errorf("api: building request: %w", err)
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if t := TraceFrom(ctx); t != "" {
		hreq.Header.Set(TraceHeader, t)
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// Connected answers /v1/connected: one bool per pair, in order.
func (c *Client) Connected(ctx context.Context, req *QueryRequest) ([]bool, error) {
	var resp ConnectedResponse
	if err := c.Query(ctx, "connected", req, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Estimate answers /v1/estimate: one estimate per pair, in order.
func (c *Client) Estimate(ctx context.Context, req *QueryRequest) ([]int64, error) {
	var resp EstimateResponse
	if err := c.Query(ctx, "estimate", req, &resp); err != nil {
		return nil, err
	}
	return resp.Estimates, nil
}

// Route answers /v1/route: one unknown-fault routing result per pair.
func (c *Client) Route(ctx context.Context, req *QueryRequest) ([]RouteResult, error) {
	var resp RouteResponse
	if err := c.Query(ctx, "route", req, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// RouteForbidden answers /v1/route-forbidden: one known-fault routing
// result per pair.
func (c *Client) RouteForbidden(ctx context.Context, req *QueryRequest) ([]RouteResult, error) {
	var resp RouteResponse
	if err := c.Query(ctx, "route-forbidden", req, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Healthz fetches /v1/healthz.
func (c *Client) Healthz(ctx context.Context) (*HealthResponse, error) {
	var resp HealthResponse
	if err := c.get(ctx, "healthz", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches /v1/stats.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.get(ctx, "stats", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
