package serve

// Oracle tests of the hand codec: encoding/json is the reference for
// both directions. The request decoder must give encoding/json's request
// or rejection on every input, and the response encoders must write
// json.Encoder.Encode's bytes for every body.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ftrouting"
	"ftrouting/serve/api"
)

// fuzzMaxBytes is the body limit of the decoder fuzz target: small, so
// the fuzzer reaches the limit and the one byte past it.
const fuzzMaxBytes = 64

// checkDecodeMatchesJSON decodes data through the server's decoder and
// through encoding/json alone and fails unless both give the same batch
// (encoding/json's request through QueryRequest.Batch), or the same
// status, code and message.
func checkDecodeMatchesJSON(t *testing.T, data []byte, maxBytes int64) {
	t.Helper()
	checkBodyMatchesJSON(t, string(data), func() io.Reader { return bytes.NewReader(data) }, maxBytes)
}

// checkBodyMatchesJSON is checkDecodeMatchesJSON over a body that body
// makes afresh for each decoder.
func checkBodyMatchesJSON(t *testing.T, name string, body func() io.Reader, maxBytes int64) {
	t.Helper()
	got, gotErr := decodeQueryRequest(body(), maxBytes)
	req, wantErr := decodeJSONRequest(body(), maxBytes)
	want := req.Batch()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: decoder error %v, encoding/json error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		if *gotErr != *wantErr {
			t.Fatalf("%q: decoder rejects with %+v, encoding/json with %+v", name, *gotErr, *wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoder gives %#v, encoding/json %#v", name, got, want)
	}
}

func FuzzQueryRequestDecode(f *testing.F) {
	for _, s := range []string{
		// The canonical shape and its variations the hand parser takes.
		`{"pairs":[[0,1],[2,3]],"faults":[0,1]}`,
		`{"faults":[7],"pairs":[[-5,2147483647]]}`,
		" {\n\t\"pairs\" : [ [ 1 , 2 ] ] , \"faults\" : [ ] }\r\n",
		`{"pairs":[]}`, `{"faults":[]}`, `{}`, `{"pairs":[[-0,0]]}`,
		`{"pairs":[[-2147483648,0]]}`,
		// Shapes left to encoding/json.
		`null`, `{"pairs":null}`, `{"Pairs":[[0,1]]}`, `{"p\u0061irs":[[0,1]]}`,
		`{"pairs":[[0,1]],"pairs":[[2,3]]}`, `{"pairs":[[0]]}`, `{"pairs":[[0,1,2]]}`,
		`{"faults":[1e2]}`, `{"faults":[1.0]}`, `{"faults":[01]}`,
		`{"faults":[2147483648]}`, `{"faults":[-2147483649]}`,
		`{"faults":[99999999999999999999]}`, `{"pairs":[[0,1]]}x`, `{"pairs":[[0,1]]}{}`,
		`{"pears":[[0,1]]}`, `{"pairs":[[0,1],]}`, `{"pairs":[[0,1]],}`, `{,}`,
		`{"pairs":[[0,1]]`, `{"pairs":"zero"}`, `[]`, ``, `   `, "\xef\xbb\xbf{}",
		// At and past the size limit.
		`{"faults":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20]}`,
		`{"faults":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,2]}`,
		`{"faults":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19]}  `,
		`{"pairs":[]}` + strings.Repeat(" ", fuzzMaxBytes),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMatchesJSON(t, data, fuzzMaxBytes)
		checkDecodeMatchesJSON(t, data, DefaultMaxRequestBytes)
	})
}

// failingReader yields its bytes, then err.
type failingReader struct {
	r   io.Reader
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		return n, f.err
	}
	return n, err
}

// TestDecodeQueryRequestReadError pins that a body whose read fails
// decodes as encoding/json decodes it: a whole request read before the
// failure is answered, a cut one is rejected with the read error.
func TestDecodeQueryRequestReadError(t *testing.T) {
	boom := errors.New("connection reset")
	for _, body := range []string{`{"pairs":[[0,1]]}`, `{"pairs":[[0,1]]} `, `{"pairs":[[0,`, ``} {
		checkBodyMatchesJSON(t, body, func() io.Reader {
			return &failingReader{strings.NewReader(body), boom}
		}, 1<<10)
	}
}

// encodeJSON is the reference: what json.NewEncoder(w).Encode(v) writes.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestResponseEncodersMatchEncodingJSON(t *testing.T) {
	timing := &api.Timing{Trace: "0123456789abcdef", TotalNanos: 1234,
		Stages: []api.StageTiming{{Stage: stageDecode, Nanos: 5}}}
	check := func(name string, v any, got []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := encodeJSON(t, v); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
		}
	}

	for _, v := range []api.ConnectedResponse{
		{}, {Results: []bool{}}, {Results: []bool{true, false, true}},
		{Results: []bool{false}, Timing: timing},
	} {
		// The encoders append: what dst held stays in front.
		got, err := appendConnectedResponse([]byte("prefix"), v)
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("connected: dst prefix lost: %s", got)
		}
		check("connected", v, got[len("prefix"):], err)
	}

	for _, v := range []api.EstimateResponse{
		{}, {Estimates: []int64{}},
		{Estimates: []int64{0, 7, -1, ftrouting.Unreachable, math.MaxInt64, math.MinInt64}},
		{Estimates: []int64{3}, Timing: timing},
	} {
		got, err := appendEstimateResponse(nil, v)
		check("estimate", v, got, err)
	}

	full := api.RouteResult{Reached: true, Cost: math.MaxInt64, Opt: math.MinInt64, Stretch: 1.5,
		Hops: 3, Probes: -4, Detections: 5, Phases: 6, Iterations: 7, MaxHeaderBits: 8,
		ProbeCost: 9, Trace: []int32{0, -1, math.MaxInt32, math.MinInt32}}
	var routes []api.RouteResult
	for _, s := range []float64{0, math.Copysign(0, -1), 1, 1.0 / 3, 2.5, 1e-6, 9.99e-7, 1e-7, 1.5e-300,
		1e20, 1e21, 123456789012345678901234.0, 1.7976931348623157e308, math.SmallestNonzeroFloat64, -2.25} {
		r := full
		r.Stretch = s
		routes = append(routes, r)
	}
	for _, v := range []api.RouteResponse{
		{}, {Results: []api.RouteResult{}},
		{Results: []api.RouteResult{{}}},                   // nil trace: omitted
		{Results: []api.RouteResult{{Trace: []int32{}}}},   // empty trace: omitted
		{Results: []api.RouteResult{{Opt: ftrouting.Inf}}}, // unreachable
		{Results: routes},
		{Results: routes[:1], Timing: timing},
	} {
		got, err := appendRouteResponse(nil, v)
		check("route", v, got, err)
	}
	if _, err := appendRouteResponse(nil, api.RouteResponse{Results: []api.RouteResult{{Stretch: math.Inf(1)}}}); err == nil {
		t.Fatal("route: an infinite stretch encoded; encoding/json rejects it")
	}

	idx := 0
	last := math.MaxInt32
	for _, v := range []api.ErrorBody{
		{},
		{Error: api.ErrorInfo{Code: api.CodeBadRequest, Message: "malformed request: invalid character 'x'"}},
		{Error: api.ErrorInfo{Code: "vertex_out_of_range", Message: "batch pair 0: s out of range", PairIndex: &idx}},
		{Error: api.ErrorInfo{Code: "c", Message: "pair 2147483647", PairIndex: &last}},
		{Error: api.ErrorInfo{Code: "html", Message: `<a href="x">&amp;</a> \ tab	nl
 ctl` + "\x00\x7f\u2028 é \xff"}},
	} {
		check("error", v, appendErrorBody(nil, v), nil)
	}
}

// discardWriter is a ResponseWriter that keeps its header map and the
// status, and drops the body.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// warmAllocs serves one 16-pair request for the scheme to path through
// Server.ServeHTTP, net/http excluded, and returns its allocations once
// warm: one request whose body is rewound each run, a writer that
// discards the body. The warm-up run prepares the fault context and
// fills the pools.
func warmAllocs(t *testing.T, scheme any, g *ftrouting.Graph, path string, faults []ftrouting.EdgeID) float64 {
	t.Helper()
	s, err := New(scheme, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int32, 16)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i * 7 % g.N()), int32((i*13 + g.N()/2) % g.N())}
	}
	raw, err := json.Marshal(api.QueryRequest{Pairs: pairs, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.NewReader(raw)
	req := httptest.NewRequest(http.MethodPost, path, io.NopCloser(body))
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		body.Reset(raw)
		w.status = http.StatusOK
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", path, w.status)
		}
	}
	serve()
	if ct := w.h.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", path, ct)
	}
	return testing.AllocsPerRun(100, serve)
}

// TestServeWarmConnAllocs gates the allocations of a warm 16-pair
// connectivity request (warmAllocs). The eval stage allocates nothing, so
// what is counted is the request front half (decode, plan, context
// lookup) and the response: 17 measured.
func TestServeWarmConnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	const maxAllocs = 21
	g := ftrouting.RingOfCliques(16, 8)
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := warmAllocs(t, labels, g, "/v1/connected", ftrouting.RandomFaults(g, 4, 9)); allocs > maxAllocs {
		t.Fatalf("warm 16-pair conn request allocates %.1f, want <= %d", allocs, maxAllocs)
	} else {
		t.Logf("warm 16-pair conn request: %.1f allocs", allocs)
	}
}

// TestServeWarmRouteAllocs gates the allocations of a warm 16-pair
// known-fault routing request (warmAllocs): the front half and the
// response, plus what routing the pairs allocates (each result's Trace
// among it). 45 measured. Copying the parsed pairs into the batch, or the
// result column into a separate wire type, costs one more each.
func TestServeWarmRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	const maxAllocs = 46
	g, _ := ftrouting.FatTree(4)
	router, err := ftrouting.NewRouter(g, 2, 2, ftrouting.RouterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := warmAllocs(t, router, g, "/v1/route-forbidden", ftrouting.RandomFaults(g, 2, 9)); allocs > maxAllocs {
		t.Fatalf("warm 16-pair route-forbidden request allocates %.1f, want <= %d", allocs, maxAllocs)
	} else {
		t.Logf("warm 16-pair route-forbidden request: %.1f allocs", allocs)
	}
}
