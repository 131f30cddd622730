package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestDaemonClosesStalledBody sends complete headers and then stalls
// mid-body: the daemon's read timeout must fail the handler's body read
// and close the connection instead of holding both indefinitely.
func TestDaemonClosesStalledBody(t *testing.T) {
	defer func(d time.Duration) { daemonReadTimeout = d }(daemonReadTimeout)
	daemonReadTimeout = 200 * time.Millisecond

	bodyErr := make(chan error, 1)
	hs := newDaemonServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.Copy(io.Discard, r.Body)
		bodyErr <- err
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "POST /v1/connected HTTP/1.1\r\nHost: daemon\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"pairs\":"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-bodyErr:
		if err == nil {
			t.Fatal("handler read a 100-byte body from 9 bytes")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled body still blocks the handler after 10s")
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Whatever the server answers, it must then close the connection: the
	// read ends in EOF (or a reset), not in our own deadline.
	if _, err := io.ReadAll(conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("connection still open 10s after the body stalled")
		}
	}
}
