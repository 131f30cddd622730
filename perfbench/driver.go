package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sent is the record of one request. Times are nanoseconds since the
// start of its phase.
type sent struct {
	index uint64
	// due is when the schedule wanted the request sent (closed loop: when
	// a connection became free).
	due int64
	// wake is when the pacer woke for it; slept reports whether it slept
	// to get there (otherwise it was already late and wake == due does
	// not hold).
	wake  int64
	slept bool
	// handoff is when a connection took the request, done when its
	// response had been read and handled.
	handoff, done int64
	status        int
	body          []byte
	err           error
	// span is the traced run's span of the round trip, or -1.
	span int
}

func (s *sent) failed() bool { return s.err != nil || s.status != http.StatusOK }

// latency is the time from due to response, the figure a caller
// arriving on schedule sees.
func (s *sent) latency() time.Duration { return time.Duration(s.done - s.due) }

// service is the time a connection spent on the request.
func (s *sent) service() time.Duration { return time.Duration(s.done - s.handoff) }

// slip is how late the pacer's timer woke; only requests it slept for
// have one.
func (s *sent) slip() (time.Duration, bool) { return time.Duration(s.wake - s.due), s.slept }

// backlog is the time the request waited for a free connection, counted
// from due when the pacer was already late and from its wake otherwise.
func (s *sent) backlog() time.Duration {
	if s.slept {
		return time.Duration(s.handoff - s.wake)
	}
	return time.Duration(s.handoff - s.due)
}

// sender says what to send for a request and what to do with the
// answer. body runs on the sending goroutine once a connection has taken
// the request; handle, if set, runs on the reading goroutine after the
// response and before the request counts as done.
type sender struct {
	body   func(s *sent) []byte
	handle func(s *sent)
}

// bodySender sends the body that body(index) returns.
func bodySender(body func(uint64) []byte) sender {
	return sender{body: func(s *sent) []byte { return body(s.index) }}
}

// conn is one keep-alive HTTP/1.1 connection. The driver writes requests
// and reads responses on it itself rather than through net/http's
// client, whose transport hands each request to a writer goroutine and
// each response back from a reader goroutine: on a shared host every
// such wake-up of an idle vCPU added to the measured latency.
type conn struct {
	addr, host, path string
	nc               net.Conn
	br               *bufio.Reader
}

// write sends one POST of body, dialing first if the connection is not
// open.
func (c *conn) write(body []byte) error {
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
		if err != nil {
			return err
		}
		c.nc, c.br = nc, bufio.NewReader(nc)
	}
	req := fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		c.path, c.host, len(body))
	if _, err := c.nc.Write(append(req, body...)); err != nil {
		c.close()
		return err
	}
	return nil
}

// read reads one response into s. A connection the response or an error
// leaves unusable is closed, and the next write dials again.
func (c *conn) read(s *sent) {
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		s.err = err
		c.close()
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	if s.err != nil || resp.Close {
		c.close()
	}
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.br = nil, nil
	}
}

// roundTrip sends body and reads the answer into s.
func (c *conn) roundTrip(body []byte, s *sent) {
	if s.err = c.write(body); s.err == nil {
		c.read(s)
	}
}

// driver sends request bodies to one endpoint over a fixed set of
// connections.
type driver struct {
	conns []*conn
}

func newDriver(rawURL string, conns int) *driver {
	u, err := url.Parse(rawURL)
	if err != nil {
		panic(err) // the URL is built from the daemon's listen address
	}
	d := &driver{}
	for i := 0; i < conns; i++ {
		d.conns = append(d.conns, &conn{addr: u.Host, host: u.Host, path: u.RequestURI()})
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.conns {
		c.close()
	}
}

// exchange sends request s on c and handles the answer; times are
// relative to start.
func exchange(c *conn, snd sender, s *sent, start time.Time) {
	c.roundTrip(snd.body(s), s)
	finish(snd, s, start)
}

// finish runs the sender's handler and stamps the request done.
func finish(snd sender, s *sent, start time.Time) {
	if snd.handle != nil {
		snd.handle(s)
	}
	s.done = int64(time.Since(start))
}

// closedLoop keeps every connection busy for dur: each sends its next
// request as soon as the previous answer is read. Request j of the phase
// has index base+j; which connection sends it depends on timing, the
// set of indices does not.
func (d *driver) closedLoop(dur time.Duration, base uint64, snd sender) []*sent {
	var next atomic.Uint64
	per := make([][]*sent, len(d.conns))
	start := time.Now()
	var wg sync.WaitGroup
	for w, c := range d.conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for time.Since(start) < dur {
				s := &sent{index: base + next.Add(1) - 1, due: int64(time.Since(start)), span: -1}
				s.wake, s.handoff = s.due, s.due
				exchange(c, snd, s, start)
				per[w] = append(per[w], s)
			}
		}(w, c)
	}
	wg.Wait()
	var out []*sent
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// openLoop sends requests base..base+n-1, request j due at j/rate
// seconds after the start, whatever the server does. A single pacer on
// a locked OS thread sleeps with nanosleep until each due time (Go
// timers round sub-millisecond waits up to the netpoller's tick, which
// would show as slip), takes a free connection and writes the request
// itself. When every connection is busy it waits for one, and the wait
// is charged to the request as backlog. One reader per connection reads
// the answers.
func (d *driver) openLoop(rate float64, base uint64, n int, snd sender) []*sent {
	out := make([]*sent, n)
	start := time.Now()
	free := make(chan *conn, len(d.conns))
	// Each connection's reader takes requests from a one-slot channel: a
	// connection carries one request at a time.
	slot := make(map[*conn]chan *sent, len(d.conns))
	var wg sync.WaitGroup
	for _, c := range d.conns {
		in := make(chan *sent, 1)
		slot[c] = in
		free <- c
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for s := range in {
				if s.err == nil {
					c.read(s)
				}
				finish(snd, s, start)
				free <- c
			}
		}(c)
	}
	runtime.LockOSThread()
	for j := range out {
		due := int64(float64(j) * 1e9 / rate)
		s := &sent{index: base + uint64(j), due: due, span: -1}
		now := int64(time.Since(start))
		for now < due {
			s.slept = true
			sleepNanos(due - now)
			now = int64(time.Since(start))
		}
		s.wake = now
		out[j] = s
		c := <-free
		s.handoff = int64(time.Since(start))
		// The connection goes to its reader after the write, which the
		// reader then cannot race.
		s.err = c.write(snd.body(s))
		slot[c] <- s
	}
	runtime.UnlockOSThread()
	for _, in := range slot {
		close(in)
	}
	wg.Wait()
	return out
}

// sleepNanos blocks the calling thread for about ns nanoseconds. An
// interrupted sleep returns early; callers re-check the clock.
func sleepNanos(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	syscall.Nanosleep(&ts, nil)
}
