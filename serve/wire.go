package serve

// The wire types of the HTTP/JSON API live in the importable serve/api
// package, shared verbatim by every tier (server, fan-out proxy) and by
// clients. This file keeps the server-side helpers: the internal error
// carrier, request decoding and response rendering.
//
// encoding/json is the reference codec of the wire. The request decoder
// parses the one shape clients send by hand and hands every other body
// to encoding/json, so what is accepted and every rejection stay
// encoding/json's (FuzzQueryRequestDecode). The response encoders append
// exactly the bytes json.Encoder.Encode writes for the four bodies of
// the query path (TestResponseEncodersMatchEncodingJSON).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"ftrouting"
	"ftrouting/serve/api"
)

// apiError pairs an HTTP status with the structured error payload.
type apiError struct {
	status int
	code   string
	msg    string
	pair   int // failing pair index, or -1
}

func (e *apiError) Error() string { return e.msg }

// errorf builds an apiError with no pair scope.
func errorf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...), pair: -1}
}

// fromBatchError maps a batch-API error onto an apiError using the stable
// code and pair index the error chain carries — never the message text.
func fromBatchError(err error) *apiError {
	status := http.StatusBadRequest
	code := ftrouting.CodeOf(err)
	if code == ftrouting.CodeInternal {
		status = http.StatusInternalServerError
	}
	return &apiError{status: status, code: string(code), msg: err.Error(), pair: ftrouting.PairIndexOf(err)}
}

// fromClientError maps an api.Error a replica answered with back onto an
// apiError, preserving status, code, message and pair scope — the proxy's
// passthrough of an authoritative upstream rejection.
func fromClientError(e *api.Error) *apiError {
	pair := -1
	if e.Info.PairIndex != nil {
		pair = *e.Info.PairIndex
	}
	return &apiError{status: e.Status, code: e.Info.Code, msg: e.Info.Message, pair: pair}
}

// maxPooledBytes caps the buffers the codec returns to its pools, so one
// large request or response does not pin its memory for the process.
const maxPooledBytes = 64 << 10

// reqScratch is one request's pooled decode state: the body bytes and
// the integers the hand parser reads.
type reqScratch struct {
	body []byte
	ints []int32
}

var reqScratches = sync.Pool{New: func() any { return new(reqScratch) }}

// decodeQueryRequest parses a request body of at most maxBytes bytes.
// Unknown fields, trailing data and oversized bodies are rejected; the
// decoder never panics on malformed input (FuzzServeRequest). The body
// is read whole, up to one byte past the limit; parseQueryRequest
// decodes the canonical shape, and any other body replays through
// decodeJSONRequest, which gives its answer or rejection.
func decodeQueryRequest(body io.Reader, maxBytes int64) (api.QueryRequest, *apiError) {
	sc := reqScratches.Get().(*reqScratch)
	defer func() {
		if cap(sc.body) <= maxPooledBytes && cap(sc.ints) <= maxPooledBytes/4 {
			reqScratches.Put(sc)
		}
	}()
	var rerr error
	sc.body, rerr = readLimited(sc.body[:0], body, maxBytes+1)
	if rerr == nil && int64(len(sc.body)) <= maxBytes {
		if req, ok := parseQueryRequest(sc.body, &sc.ints); ok {
			return req, nil
		}
	}
	var r io.Reader = bytes.NewReader(sc.body)
	if rerr != nil {
		r = io.MultiReader(r, errReader{rerr})
	}
	return decodeJSONRequest(r, maxBytes)
}

// readLimited appends r's bytes to dst until EOF, an error, or limit
// bytes in all.
func readLimited(dst []byte, r io.Reader, limit int64) ([]byte, error) {
	if cap(dst) == 0 {
		dst = make([]byte, 0, 512) // most requests fit in one read
	}
	for int64(len(dst)) < limit {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		end := int64(cap(dst))
		if end > limit {
			end = limit
		}
		n, err := r.Read(dst[len(dst):end])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// errReader replays a body read's error after its bytes.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeJSONRequest is the reference decoder: encoding/json with unknown
// fields and trailing data rejected, over a body cut one byte past
// maxBytes.
func decodeJSONRequest(body io.Reader, maxBytes int64) (api.QueryRequest, *apiError) {
	// One spare byte past the limit distinguishes "exactly maxBytes" from
	// "too large" without reading an unbounded body.
	lr := &io.LimitedReader{R: body, N: maxBytes + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	var req api.QueryRequest
	if err := dec.Decode(&req); err != nil {
		if lr.N <= 0 {
			return req, errorf(http.StatusRequestEntityTooLarge, api.CodeRequestTooLarge,
				"request body exceeds %d bytes", maxBytes)
		}
		if errors.Is(err, io.EOF) {
			return req, errorf(http.StatusBadRequest, api.CodeBadRequest, "empty request body")
		}
		return req, errorf(http.StatusBadRequest, api.CodeBadRequest, "malformed request: %v", err)
	}
	if dec.More() {
		return req, errorf(http.StatusBadRequest, api.CodeBadRequest, "trailing data after request object")
	}
	if lr.N <= 0 {
		return req, errorf(http.StatusRequestEntityTooLarge, api.CodeRequestTooLarge,
			"request body exceeds %d bytes", maxBytes)
	}
	return req, nil
}

// parseQueryRequest decodes the canonical request shape,
//
//	{"pairs":[[s,t],...],"faults":[id,...]}
//
// with either key order, either key absent, JSON whitespace around any
// token, and integers in int32 range without fraction or exponent. ok is false for any other input: null, case-
// folded, escaped, unknown or repeated keys, inner arrays of another
// length, and every invalid body. Those are left to encoding/json. An
// accepted body decodes to exactly what encoding/json gives: an absent
// key leaves its field nil, an empty array makes it empty and non-nil.
// ints is scratch for the integers read.
func parseQueryRequest(b []byte, ints *[]int32) (req api.QueryRequest, ok bool) {
	p := reqParser{b: b, ints: (*ints)[:0]}
	defer func() { *ints = p.ints }()
	pairsAt, faultsAt := -1, -1
	var pairsEnd, faultsEnd int
	if !p.token('{') {
		return req, false
	}
	if !p.token('}') {
		for {
			var at, end *int
			width := 1
			switch {
			case p.literal(`"pairs"`):
				at, end, width = &pairsAt, &pairsEnd, 2
			case p.literal(`"faults"`):
				at, end = &faultsAt, &faultsEnd
			default:
				return req, false
			}
			if *at >= 0 || !p.token(':') {
				return req, false
			}
			*at = len(p.ints)
			if !p.array(width) {
				return req, false
			}
			*end = len(p.ints)
			if p.token('}') {
				break
			}
			if !p.token(',') {
				return req, false
			}
		}
	}
	if p.ws(); p.i != len(b) {
		return req, false
	}
	if pairsAt >= 0 {
		req.Pairs = make([][2]int32, (pairsEnd-pairsAt)/2)
		for i := range req.Pairs {
			req.Pairs[i] = [2]int32{p.ints[pairsAt+2*i], p.ints[pairsAt+2*i+1]}
		}
	}
	if faultsAt >= 0 {
		req.Faults = make([]ftrouting.EdgeID, faultsEnd-faultsAt)
		copy(req.Faults, p.ints[faultsAt:faultsEnd])
	}
	return req, true
}

// reqParser is the cursor of parseQueryRequest.
type reqParser struct {
	b    []byte
	i    int
	ints []int32
}

// ws skips JSON whitespace.
func (p *reqParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// token consumes c after optional whitespace.
func (p *reqParser) token(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal consumes s after optional whitespace.
func (p *reqParser) literal(s string) bool {
	p.ws()
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// array consumes an array of integers (width 1) or of arrays of exactly
// width integers, appending the integers in order.
func (p *reqParser) array(width int) bool {
	if !p.token('[') {
		return false
	}
	if p.token(']') {
		return true
	}
	for {
		if width == 1 {
			if !p.int() {
				return false
			}
		} else {
			if !p.token('[') {
				return false
			}
			for k := 0; k < width; k++ {
				if k > 0 && !p.token(',') || !p.int() {
					return false
				}
			}
			if !p.token(']') {
				return false
			}
		}
		if p.token(']') {
			return true
		}
		if !p.token(',') {
			return false
		}
	}
}

// int consumes an integer in int32 range: -?(0|[1-9][0-9]*). A fraction
// or exponent after it fails the caller's next token.
func (p *reqParser) int() bool {
	p.ws()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	var v int64
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		v = v*10 + int64(p.b[p.i]-'0')
		p.i++
		if v > math.MaxInt32+1 {
			return false
		}
	}
	digits := p.i - start
	if digits == 0 || digits > 1 && p.b[start] == '0' {
		return false
	}
	if neg {
		v = -v
	}
	if v > math.MaxInt32 || v < math.MinInt32 {
		return false
	}
	p.ints = append(p.ints, int32(v))
	return true
}

// jsonContentType is the preset Content-Type of every JSON body; net/http
// only reads it, and a header Add would copy it (len == cap).
var jsonContentType = []string{"application/json"}

// bodyBufs pools response buffers.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeBody renders a JSON body that encode appends into a pooled
// buffer, under the given status. Like json.Encoder, a failed encoding
// writes no body.
func writeBody(w http.ResponseWriter, status int, encode func([]byte) ([]byte, error)) {
	buf := bodyBufs.Get().(*[]byte)
	body, err := encode((*buf)[:0])
	w.Header()["Content-Type"] = jsonContentType
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	if err == nil {
		w.Write(body)
	}
	if cap(body) <= maxPooledBytes {
		*buf = body
		bodyBufs.Put(buf)
	}
}

// writeJSON renders a 200 response through encoding/json (healthz and
// stats, off the query path).
func writeJSON(w http.ResponseWriter, v any) {
	writeBody(w, http.StatusOK, func(dst []byte) ([]byte, error) {
		b, err := json.Marshal(v)
		return append(append(dst, b...), '\n'), err
	})
}

// writeError renders the structured error envelope.
func writeError(w http.ResponseWriter, e *apiError) {
	info := api.ErrorInfo{Code: e.code, Message: e.msg}
	if e.pair >= 0 {
		idx := e.pair
		info.PairIndex = &idx
	}
	writeBody(w, e.status, func(dst []byte) ([]byte, error) {
		return appendErrorBody(dst, api.ErrorBody{Error: info}), nil
	})
}

// The append encoders below write what json.NewEncoder(w).Encode(v)
// writes for their body type, trailing newline included.

func appendConnectedResponse(dst []byte, v api.ConnectedResponse) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	dst = appendColumn(dst, v.Results, strconv.AppendBool)
	return appendTiming(dst, v.Timing)
}

func appendEstimateResponse(dst []byte, v api.EstimateResponse) ([]byte, error) {
	dst = append(dst, `{"estimates":`...)
	dst = appendColumn(dst, v.Estimates, appendInt64)
	return appendTiming(dst, v.Timing)
}

func appendRouteResponse(dst []byte, v api.RouteResponse) ([]byte, error) {
	for _, r := range v.Results {
		if math.IsInf(r.Stretch, 0) || math.IsNaN(r.Stretch) {
			return dst, fmt.Errorf("json: unsupported value: %v", r.Stretch)
		}
	}
	dst = append(dst, `{"results":`...)
	dst = appendColumn(dst, v.Results, appendRouteResult)
	return appendTiming(dst, v.Timing)
}

// appendRouteResult appends one finite-stretch route result.
func appendRouteResult(dst []byte, r api.RouteResult) []byte {
	dst = strconv.AppendBool(append(dst, `{"reached":`...), r.Reached)
	dst = strconv.AppendInt(append(dst, `,"cost":`...), r.Cost, 10)
	dst = strconv.AppendInt(append(dst, `,"opt":`...), r.Opt, 10)
	dst = appendFloat(append(dst, `,"stretch":`...), r.Stretch)
	dst = strconv.AppendInt(append(dst, `,"hops":`...), int64(r.Hops), 10)
	dst = strconv.AppendInt(append(dst, `,"probes":`...), int64(r.Probes), 10)
	dst = strconv.AppendInt(append(dst, `,"detections":`...), int64(r.Detections), 10)
	dst = strconv.AppendInt(append(dst, `,"phases":`...), int64(r.Phases), 10)
	dst = strconv.AppendInt(append(dst, `,"iterations":`...), int64(r.Iterations), 10)
	dst = strconv.AppendInt(append(dst, `,"max_header_bits":`...), int64(r.MaxHeaderBits), 10)
	dst = strconv.AppendInt(append(dst, `,"probe_cost":`...), r.ProbeCost, 10)
	if len(r.Trace) > 0 {
		dst = appendColumn(append(dst, `,"trace":`...), r.Trace, appendInt32)
	}
	return append(dst, '}')
}

func appendInt32(dst []byte, v int32) []byte { return strconv.AppendInt(dst, int64(v), 10) }

func appendInt64(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

func appendErrorBody(dst []byte, v api.ErrorBody) []byte {
	dst = append(dst, `{"error":{"code":`...)
	dst = appendString(dst, v.Error.Code)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, v.Error.Message)
	if v.Error.PairIndex != nil {
		dst = append(dst, `,"pair_index":`...)
		dst = strconv.AppendInt(dst, int64(*v.Error.PairIndex), 10)
	}
	return append(dst, "}}\n"...)
}

// appendColumn appends a JSON array, or null for a nil slice.
func appendColumn[T any](dst []byte, col []T, elem func([]byte, T) []byte) []byte {
	if col == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range col {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, x)
	}
	return append(dst, ']')
}

// appendTiming closes a response object, adding the ?debug=timing echo
// through encoding/json when present.
func appendTiming(dst []byte, t *api.Timing) ([]byte, error) {
	if t != nil {
		b, err := json.Marshal(t)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"timing":`...), b...)
	}
	return append(dst, "}\n"...), nil
}

// appendFloat appends a finite f in encoding/json's float64 format: 'f',
// or 'e' with a two-digit negative exponent trimmed to one, for
// magnitudes outside [1e-6, 1e21).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString appends s as a JSON string. Printable ASCII other than
// '"', '\\' and the HTML-escaped '<', '>', '&' is copied; a string with
// any other byte goes through encoding/json.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
