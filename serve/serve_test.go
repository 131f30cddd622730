package serve

// End-to-end tests of the daemon: build a scheme in-process, start the
// server on a loopback listener, and prove every endpoint's responses are
// bit-identical to direct batch-API calls across the generator matrix —
// including the structured error bodies.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ftrouting"
	"ftrouting/serve/api"
)

// connMatrix mirrors the root package's connectivity generator matrix:
// every public generator family, plus weighted and disconnected inputs.
func connMatrix() map[string]*ftrouting.Graph {
	two := ftrouting.NewGraph(13) // two components + an isolated vertex
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 6; j++ {
			two.MustAddEdge(i, j, 1)
		}
	}
	for i := int32(6); i < 11; i++ {
		two.MustAddEdge(i, i+1, 2)
	}
	two.MustAddEdge(6, 11, 3)
	return map[string]*ftrouting.Graph{
		"path":     ftrouting.Path(17),
		"cycle":    ftrouting.Cycle(12),
		"grid":     ftrouting.Grid(4, 5),
		"star":     ftrouting.Star(9),
		"cliques":  ftrouting.RingOfCliques(4, 4),
		"random":   ftrouting.RandomConnected(40, 60, 3),
		"weighted": ftrouting.WithRandomWeights(ftrouting.RandomConnected(24, 36, 5), 9, 11),
		"disconn":  two,
	}
}

// distMatrix is the smaller matrix used where preprocessing builds a full
// tree-cover hierarchy.
func distMatrix() map[string]*ftrouting.Graph {
	return map[string]*ftrouting.Graph{
		"path":     ftrouting.Path(10),
		"cycle":    ftrouting.Cycle(9),
		"grid":     ftrouting.Grid(3, 4),
		"random":   ftrouting.RandomConnected(18, 27, 3),
		"weighted": ftrouting.WithRandomWeights(ftrouting.RandomConnected(16, 24, 5), 8, 11),
	}
}

// servePairs is a deterministic pair spread: diagonal, duplicates, and
// distinct pairs.
func servePairs(n int) [][2]int32 {
	var out [][2]int32
	for i := 0; i < 12; i++ {
		out = append(out, [2]int32{int32((i * 7) % n), int32((i*13 + n/2) % n)})
	}
	out = append(out, [2]int32{0, 0}, out[0], out[1])
	return out
}

// toPairs converts wire pairs to batch pairs.
func toPairs(pairs [][2]int32) []ftrouting.Pair {
	out := make([]ftrouting.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = ftrouting.Pair{S: p[0], T: p[1]}
	}
	return out
}

// startServer wraps a scheme in a Server on a loopback listener.
func startServer(t *testing.T, scheme any, opts Options) *httptest.Server {
	t.Helper()
	s, err := New(scheme, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// postJSON posts a request body and returns status and raw body.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// decodeInto strictly decodes a 200 body.
func decodeInto(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
}

func TestServeConnectedMatchesBatch(t *testing.T) {
	for name, g := range connMatrix() {
		for _, scheme := range []ftrouting.ConnSchemeKind{ftrouting.CutBased, ftrouting.SketchBased} {
			t.Run(fmt.Sprintf("%s/scheme%d", name, scheme), func(t *testing.T) {
				labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
					Scheme: scheme, MaxFaults: 4, Seed: 42,
				})
				if err != nil {
					t.Fatal(err)
				}
				ts := startServer(t, labels, Options{})
				for nf := 0; nf <= 4 && nf*3 < g.M(); nf++ {
					pairs := servePairs(g.N())
					faults := ftrouting.RandomFaults(g, nf, uint64(11*nf+3))
					want, err := labels.ConnectedBatch(
						ftrouting.QueryBatch{Pairs: toPairs(pairs), Faults: faults},
						ftrouting.BatchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					// Twice: the second request hits the warm context.
					for round := 0; round < 2; round++ {
						status, body := postJSON(t, ts.URL+"/v1/connected",
							api.QueryRequest{Pairs: pairs, Faults: faults})
						if status != http.StatusOK {
							t.Fatalf("|F|=%d round %d: status %d: %s", nf, round, status, body)
						}
						var resp api.ConnectedResponse
						decodeInto(t, body, &resp)
						if !reflect.DeepEqual(resp.Results, want) {
							t.Fatalf("|F|=%d round %d: served %v != direct %v", nf, round, resp.Results, want)
						}
					}
				}
			})
		}
	}
}

func TestServeEstimateMatchesBatch(t *testing.T) {
	for name, g := range distMatrix() {
		t.Run(name, func(t *testing.T) {
			labels, err := ftrouting.BuildDistanceLabels(g, 2, 2, 42)
			if err != nil {
				t.Fatal(err)
			}
			ts := startServer(t, labels, Options{})
			for nf := 0; nf <= 2 && nf*3 < g.M(); nf++ {
				pairs := servePairs(g.N())
				faults := ftrouting.RandomFaults(g, nf, uint64(7*nf+5))
				want, err := labels.EstimateBatch(
					ftrouting.QueryBatch{Pairs: toPairs(pairs), Faults: faults},
					ftrouting.BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				status, body := postJSON(t, ts.URL+"/v1/estimate",
					api.QueryRequest{Pairs: pairs, Faults: faults})
				if status != http.StatusOK {
					t.Fatalf("|F|=%d: status %d: %s", nf, status, body)
				}
				var resp api.EstimateResponse
				decodeInto(t, body, &resp)
				if !reflect.DeepEqual(resp.Estimates, want) {
					t.Fatalf("|F|=%d: served %v != direct %v", nf, resp.Estimates, want)
				}
			}
		})
	}
}

func TestServeRouteMatchesBatch(t *testing.T) {
	for name, g := range distMatrix() {
		t.Run(name, func(t *testing.T) {
			router, err := ftrouting.NewRouter(g, 2, 2, ftrouting.RouterOptions{Seed: 42, Balanced: true})
			if err != nil {
				t.Fatal(err)
			}
			ts := startServer(t, router, Options{})
			for nf := 0; nf <= 2 && nf*3 < g.M(); nf++ {
				pairs := servePairs(g.N())
				faults := ftrouting.RandomFaults(g, nf, uint64(5*nf+9))
				batch := ftrouting.QueryBatch{Pairs: toPairs(pairs), Faults: faults}
				for _, endpoint := range []string{"route", "route-forbidden"} {
					var want []ftrouting.RouteResult
					if endpoint == "route" {
						want, err = router.RouteBatch(batch, ftrouting.BatchOptions{})
					} else {
						want, err = router.RouteForbiddenBatch(batch, ftrouting.BatchOptions{})
					}
					if err != nil {
						t.Fatal(err)
					}
					wire := make([]api.RouteResult, len(want))
					for i, res := range want {
						wire[i] = api.FromRouteResult(res)
					}
					status, body := postJSON(t, ts.URL+"/v1/"+endpoint,
						api.QueryRequest{Pairs: pairs, Faults: faults})
					if status != http.StatusOK {
						t.Fatalf("%s |F|=%d: status %d: %s", endpoint, nf, status, body)
					}
					var resp api.RouteResponse
					decodeInto(t, body, &resp)
					if !reflect.DeepEqual(resp.Results, wire) {
						t.Fatalf("%s |F|=%d: served results differ from direct batch", endpoint, nf)
					}
				}
			}
		})
	}
}

// TestServeLoadedScheme drives the full deployment path: save a scheme,
// LoadScheme it back, serve it, and check answers match the original.
func TestServeLoadedScheme(t *testing.T) {
	g := ftrouting.RandomConnected(30, 45, 3)
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ftrouting.SaveConnLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	loaded, err := ftrouting.LoadScheme(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, loaded, Options{})
	pairs := servePairs(g.N())
	faults := ftrouting.RandomFaults(g, 3, 4)
	want, err := labels.ConnectedBatch(
		ftrouting.QueryBatch{Pairs: toPairs(pairs), Faults: faults}, ftrouting.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	status, body := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{Pairs: pairs, Faults: faults})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp api.ConnectedResponse
	decodeInto(t, body, &resp)
	if !reflect.DeepEqual(resp.Results, want) {
		t.Fatalf("served-from-file %v != built %v", resp.Results, want)
	}
}

// expectError asserts a structured error body with the given status,
// code, and pair index (-1 = no pair_index field).
func expectError(t *testing.T, status int, body []byte, wantStatus int, wantCode string, wantPair int) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status %d, want %d (body %s)", status, wantStatus, body)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %s does not parse: %v", body, err)
	}
	if eb.Error.Code != wantCode {
		t.Fatalf("code %q, want %q (body %s)", eb.Error.Code, wantCode, body)
	}
	if eb.Error.Message == "" {
		t.Fatalf("empty error message: %s", body)
	}
	if wantPair < 0 {
		if eb.Error.PairIndex != nil {
			t.Fatalf("unexpected pair_index %d: %s", *eb.Error.PairIndex, body)
		}
	} else if eb.Error.PairIndex == nil || *eb.Error.PairIndex != wantPair {
		t.Fatalf("pair_index %v, want %d (body %s)", eb.Error.PairIndex, wantPair, body)
	}
}

func TestServeErrorBodies(t *testing.T) {
	g := ftrouting.Cycle(12)
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
		Scheme: ftrouting.CutBased, MaxFaults: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, labels, Options{MaxRequestBytes: 1 << 12})
	url := ts.URL + "/v1/connected"

	// Out-of-range vertex: 400 with the batch code and first failing pair.
	status, body := postJSON(t, url, api.QueryRequest{
		Pairs: [][2]int32{{0, 1}, {4, 99}, {-1, 2}},
	})
	expectError(t, status, body, http.StatusBadRequest, string(ftrouting.CodeVertexRange), 1)

	// Out-of-range fault id: 400, not pair-scoped.
	status, body = postJSON(t, url, api.QueryRequest{
		Pairs: [][2]int32{{0, 1}}, Faults: []ftrouting.EdgeID{int32(g.M())},
	})
	expectError(t, status, body, http.StatusBadRequest, string(ftrouting.CodeFaultRange), -1)

	// |F| > f: 400 with the fault-bound code.
	status, body = postJSON(t, url, api.QueryRequest{
		Pairs: [][2]int32{{0, 1}}, Faults: []ftrouting.EdgeID{0, 1, 2},
	})
	expectError(t, status, body, http.StatusBadRequest, string(ftrouting.CodeFaultBound), -1)

	// Duplicate fault ids count once toward f: not an error, and answers
	// match the direct call.
	status, body = postJSON(t, url, api.QueryRequest{
		Pairs: [][2]int32{{0, 6}}, Faults: []ftrouting.EdgeID{1, 1, 7, 7},
	})
	if status != http.StatusOK {
		t.Fatalf("duplicate faults: status %d: %s", status, body)
	}
	var resp api.ConnectedResponse
	decodeInto(t, body, &resp)
	want, err := labels.Connected(0, 6, []ftrouting.EdgeID{1, 1, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0] != want {
		t.Fatalf("duplicate faults: served %v, direct %v", resp.Results, want)
	}

	// Empty pair list mirrors the batch API: success, no fault validation.
	status, body = postJSON(t, url, api.QueryRequest{Faults: []ftrouting.EdgeID{9999}})
	if status != http.StatusOK {
		t.Fatalf("empty pairs: status %d: %s", status, body)
	}
	decodeInto(t, body, &resp)
	if len(resp.Results) != 0 {
		t.Fatalf("empty pairs: results %v", resp.Results)
	}

	// Endpoint of another scheme kind: 404 unsupported_endpoint.
	status, body = postJSON(t, ts.URL+"/v1/estimate", api.QueryRequest{Pairs: [][2]int32{{0, 1}}})
	expectError(t, status, body, http.StatusNotFound, api.CodeUnsupported, -1)

	// Malformed JSON, unknown field, trailing data, empty body: 400.
	for _, raw := range []string{`{"pairs":[[0,1]`, `{"pears":[[0,1]]}`, `{"pairs":[[0,1]]}{}`, ``} {
		resp, err := http.Post(url, "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		expectError(t, resp.StatusCode, data, http.StatusBadRequest, api.CodeBadRequest, -1)
	}

	// Oversized body: 413 request_too_large.
	huge := api.QueryRequest{Pairs: [][2]int32{{0, 1}}}
	for i := 0; i < 5000; i++ {
		huge.Faults = append(huge.Faults, 1)
	}
	status, body = postJSON(t, url, huge)
	expectError(t, status, body, http.StatusRequestEntityTooLarge, api.CodeRequestTooLarge, -1)

	// Wrong method: 405; unknown path: 404.
	getResp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	expectError(t, getResp.StatusCode, data, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, -1)
	status, body = postJSON(t, ts.URL+"/v2/bogus", api.QueryRequest{})
	expectError(t, status, body, http.StatusNotFound, api.CodeNotFound, -1)
}

func TestServeHealthzAndStats(t *testing.T) {
	g := ftrouting.Grid(3, 4)
	labels, err := ftrouting.BuildDistanceLabels(g, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, labels, Options{})
	client := api.New(ts.URL)
	ctx := context.Background()

	health, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Kind != "dist" ||
		health.Vertices != g.N() || health.Edges != g.M() ||
		health.FaultBound != 2 || health.Unreachable != ftrouting.Unreachable ||
		health.Digest == "" {
		t.Fatalf("healthz = %+v", health)
	}

	// Two queries against one fault set, one against another: 1 hit, 2
	// misses, 3 requests, pairs accounted.
	pairs := servePairs(g.N())
	for _, faults := range [][]ftrouting.EdgeID{{0}, {0}, {1}} {
		ests, err := client.Estimate(ctx, &api.QueryRequest{Pairs: pairs, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != len(pairs) {
			t.Fatalf("got %d estimates for %d pairs", len(ests), len(pairs))
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kind != "dist" {
		t.Fatalf("stats kind %q", stats.Kind)
	}
	ep := stats.Endpoints["estimate"]
	if ep.Requests != 3 || ep.Errors != 0 {
		t.Fatalf("estimate counters = %+v", ep)
	}
	if stats.PairsServed != uint64(3*len(pairs)) {
		t.Fatalf("pairs served %d, want %d", stats.PairsServed, 3*len(pairs))
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 2 || stats.Cache.Size != 2 {
		t.Fatalf("cache stats = %+v", stats.Cache)
	}
	if stats.Cache.Capacity != DefaultContextCacheSize {
		t.Fatalf("cache capacity %d", stats.Cache.Capacity)
	}

	// Errors come back from the typed client as *api.Error carrying the
	// decoded envelope, and tick the endpoint's error counter.
	_, err = client.Estimate(ctx, &api.QueryRequest{Pairs: [][2]int32{{0, 99}}})
	var ce *api.Error
	if !errors.As(err, &ce) || ce.Status != http.StatusBadRequest ||
		ce.Info.Code != string(ftrouting.CodeVertexRange) ||
		ce.Info.PairIndex == nil || *ce.Info.PairIndex != 0 {
		t.Fatalf("bad pair: err = %v", err)
	}
	stats, err = client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ep := stats.Endpoints["estimate"]; ep.Requests != 4 || ep.Errors != 1 {
		t.Fatalf("after error: estimate counters = %+v", ep)
	}
}

// TestServeFaultOrderSharesContext proves requests naming the same fault
// set in different orders (or with duplicates) share one cached context
// and answer identically.
func TestServeFaultOrderSharesContext(t *testing.T) {
	g := ftrouting.RandomConnected(30, 50, 5)
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(labels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	faults := ftrouting.RandomFaults(g, 3, 6)
	variants := [][]ftrouting.EdgeID{
		faults,
		{faults[2], faults[0], faults[1]},
		append(append([]ftrouting.EdgeID{}, faults...), faults...),
	}
	pairs := servePairs(g.N())
	var first []bool
	for i, fs := range variants {
		status, body := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{Pairs: pairs, Faults: fs})
		if status != http.StatusOK {
			t.Fatalf("variant %d: status %d: %s", i, status, body)
		}
		var resp api.ConnectedResponse
		decodeInto(t, body, &resp)
		if i == 0 {
			first = resp.Results
		} else if !reflect.DeepEqual(resp.Results, first) {
			t.Fatalf("variant %d answers differ: %v != %v", i, resp.Results, first)
		}
	}
	cs := s.Stats().Cache
	if cs.Misses != 1 || cs.Hits != uint64(len(variants)-1) {
		t.Fatalf("fault-order variants did not share one context: %+v", cs)
	}
}
