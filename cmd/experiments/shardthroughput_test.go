package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ftrouting/serve/api"
)

// TestPostQueryReusesConnection requires postQuery to leave the
// connection reusable: 20 calls against one server open one TCP
// connection, not one per call.
func TestPostQueryReusesConnection(t *testing.T) {
	body := `{"answers":[` + strings.Repeat(`true,`, 1000) + `true]}`
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	var opened atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	client := srv.Client()
	req := api.QueryRequest{Pairs: [][2]int32{{0, 1}}}
	for i := 0; i < 20; i++ {
		if err := postQuery(client, srv.URL, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("20 queries opened %d connections, want 1", n)
	}
}
