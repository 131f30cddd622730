package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer records spans in memory. A nil *tracer records nothing, so
// untraced runs pay only a nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, req uint64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is the self and the total time of every span of one name.
type layerTime struct {
	count       int
	self, total time.Duration
}

func (l layerTime) meanMicros() float64 { return l.perSpan(l.self) }

func (l layerTime) meanTotalMicros() float64 { return l.perSpan(l.total) }

func (l layerTime) perSpan(d time.Duration) float64 {
	if l.count == 0 {
		return 0
	}
	return float64(d) / float64(l.count) / 1e3
}

// selfTimes returns, per span name, the number of spans and their summed
// self time: each span's duration minus the part of it that its child
// spans cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for id, s := range t.spans {
		covered := int64(0)
		ivs := children[id]
		slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		var cur [2]int64
		have := false
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			switch {
			case hi <= lo:
			case have && lo <= cur[1]:
				cur[1] = max(cur[1], hi)
			default:
				covered += cur[1] - cur[0]
				cur, have = [2]int64{lo, hi}, true
			}
		}
		covered += cur[1] - cur[0]
		lt := out[s.Name]
		lt.count++
		lt.self += time.Duration(s.End - s.Start - covered)
		lt.total += time.Duration(s.End - s.Start)
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
