package serve

// FuzzServeRequest feeds arbitrary bytes through the JSON request decoder
// and the full query pipeline of every scheme kind. Properties: the
// server never panics, every response is valid JSON, non-200 responses
// carry the structured error envelope with a non-empty code, and 200
// responses carry exactly one result per requested pair. Seed corpus
// under testdata/fuzz/FuzzServeRequest is regenerated by
// cmd/genfuzzcorpus.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ftrouting"
	"ftrouting/serve/api"
)

// fuzzServers lazily builds one tiny server per scheme kind (once per
// fuzz worker process).
var fuzzServers struct {
	once    sync.Once
	servers map[string]*Server
	err     error
}

func fuzzSetup() (map[string]*Server, error) {
	fuzzServers.once.Do(func() {
		fuzzServers.servers = make(map[string]*Server)
		g := ftrouting.RandomConnected(12, 18, 3)
		conn, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
			Scheme: ftrouting.CutBased, MaxFaults: 2, Seed: 1,
		})
		if err != nil {
			fuzzServers.err = err
			return
		}
		dist, err := ftrouting.BuildDistanceLabels(g, 1, 2, 1)
		if err != nil {
			fuzzServers.err = err
			return
		}
		router, err := ftrouting.NewRouter(g, 1, 2, ftrouting.RouterOptions{Seed: 1})
		if err != nil {
			fuzzServers.err = err
			return
		}
		for name, scheme := range map[string]any{
			"connected":       conn,
			"estimate":        dist,
			"route":           router,
			"route-forbidden": router,
		} {
			// A small body cap exercises the request_too_large path.
			s, err := New(scheme, Options{MaxRequestBytes: 1 << 14, Parallelism: 1})
			if err != nil {
				fuzzServers.err = err
				return
			}
			fuzzServers.servers[name] = s
		}
	})
	return fuzzServers.servers, fuzzServers.err
}

func FuzzServeRequest(f *testing.F) {
	// Valid request shapes.
	f.Add([]byte(`{"pairs":[[0,1],[2,3]],"faults":[0,1]}`))
	f.Add([]byte(`{"pairs":[[0,0]]}`))
	f.Add([]byte(`{"pairs":[],"faults":[5]}`))
	// Validation failures with stable codes.
	f.Add([]byte(`{"pairs":[[0,99]]}`))
	f.Add([]byte(`{"pairs":[[0,1]],"faults":[9999]}`))
	f.Add([]byte(`{"pairs":[[0,1]],"faults":[0,1,2,3]}`))
	// Malformed: truncated object, wrong types, unknown field, trailing
	// data, huge fault list.
	f.Add([]byte(`{"pairs":[[0,1]`))
	f.Add([]byte(`{"pairs":"zero"}`))
	f.Add([]byte(`{"pears":[[0,1]]}`))
	f.Add([]byte(`{"pairs":[[0,1]]}{}`))
	f.Add([]byte(`{"faults":[` + bytes.NewBuffer(bytes.Repeat([]byte("1,"), 4096)).String() + `1]}`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		servers, err := fuzzSetup()
		if err != nil {
			t.Fatal(err)
		}
		for endpoint, s := range servers {
			req := httptest.NewRequest(http.MethodPost, "/v1/"+endpoint, bytes.NewReader(data))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)

			resp := rec.Result()
			body := rec.Body.Bytes()
			if resp.StatusCode == http.StatusOK {
				// One result per requested pair, mirroring the batch API.
				var echo api.QueryRequest
				if err := json.Unmarshal(data, &echo); err != nil {
					t.Fatalf("%s: 200 for undecodable input %q", endpoint, data)
				}
				var got struct {
					Results   []json.RawMessage `json:"results"`
					Estimates []json.RawMessage `json:"estimates"`
				}
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatalf("%s: 200 body %q does not parse: %v", endpoint, body, err)
				}
				if n := len(got.Results) + len(got.Estimates); n != len(echo.Pairs) {
					t.Fatalf("%s: %d results for %d pairs", endpoint, n, len(echo.Pairs))
				}
				continue
			}
			var eb api.ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("%s: status %d body %q is not an error envelope: %v",
					endpoint, resp.StatusCode, body, err)
			}
			if eb.Error.Code == "" || eb.Error.Message == "" {
				t.Fatalf("%s: status %d error envelope missing code/message: %q",
					endpoint, resp.StatusCode, body)
			}
		}
	})
}
