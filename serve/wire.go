package serve

// The wire types of the HTTP/JSON API live in the importable serve/api
// package, shared verbatim by every tier (server, fan-out proxy) and by
// clients. This file keeps the server-side helpers: the internal error
// carrier, request decoding and response rendering.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

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

// decodeQueryRequest parses a request body of at most maxBytes bytes.
// Unknown fields, trailing data and oversized bodies are rejected; the
// decoder never panics on malformed input (FuzzServeRequest).
func decodeQueryRequest(body io.Reader, maxBytes int64) (*api.QueryRequest, *apiError) {
	// One spare byte past the limit distinguishes "exactly maxBytes" from
	// "too large" without reading an unbounded body.
	lr := &io.LimitedReader{R: body, N: maxBytes + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	var req api.QueryRequest
	if err := dec.Decode(&req); err != nil {
		if lr.N <= 0 {
			return nil, errorf(http.StatusRequestEntityTooLarge, api.CodeRequestTooLarge,
				"request body exceeds %d bytes", maxBytes)
		}
		if errors.Is(err, io.EOF) {
			return nil, errorf(http.StatusBadRequest, api.CodeBadRequest, "empty request body")
		}
		return nil, errorf(http.StatusBadRequest, api.CodeBadRequest, "malformed request: %v", err)
	}
	if dec.More() {
		return nil, errorf(http.StatusBadRequest, api.CodeBadRequest, "trailing data after request object")
	}
	if lr.N <= 0 {
		return nil, errorf(http.StatusRequestEntityTooLarge, api.CodeRequestTooLarge,
			"request body exceeds %d bytes", maxBytes)
	}
	return &req, nil
}

// writeJSON renders a 200 response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeError renders the structured error envelope.
func writeError(w http.ResponseWriter, e *apiError) {
	info := api.ErrorInfo{Code: e.code, Message: e.msg}
	if e.pair >= 0 {
		idx := e.pair
		info.PairIndex = &idx
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(api.ErrorBody{Error: info})
}
