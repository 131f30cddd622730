package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"

	"ftrouting"
	"ftrouting/serve/api"
)

// oracle checks served answers against the in-process facade on the
// same scheme file, which must agree bit for bit, and a seeded sample of
// them against exact distances in G∖F.
type oracle struct {
	endpoint string
	scheme   any
	g        *ftrouting.Graph
	gen      *generator
}

// wrongAnswer is one request whose served answer is not the expected one.
type wrongAnswer struct {
	index uint64
	why   string
}

// answers is one request's decoded answer. Exactly one field is set.
type answers struct {
	conn  []bool
	est   []int64
	route []api.RouteResult
}

func (a answers) len() int { return max(len(a.conn), len(a.est), len(a.route)) }

// decodeAnswers parses a served body of the oracle's endpoint.
func (o *oracle) decodeAnswers(body []byte) (answers, error) {
	var a answers
	var err error
	switch o.endpoint {
	case "connected":
		var r api.ConnectedResponse
		err = json.Unmarshal(body, &r)
		a.conn = r.Results
	case "estimate":
		var r api.EstimateResponse
		err = json.Unmarshal(body, &r)
		a.est = r.Estimates
	default:
		var r api.RouteResponse
		err = json.Unmarshal(body, &r)
		a.route = r.Results
	}
	return a, err
}

// prepared is a fault context of the oracle's scheme.
type prepared struct {
	conn  *ftrouting.ConnFaultContext
	dist  *ftrouting.DistFaultContext
	route *ftrouting.RouteFaultContext
}

func (o *oracle) prepare(faults []ftrouting.EdgeID) (prepared, error) {
	var p prepared
	var err error
	switch s := o.scheme.(type) {
	case *ftrouting.ConnLabels:
		p.conn, err = s.PrepareFaults(faults)
	case *ftrouting.DistLabels:
		p.dist, err = s.PrepareFaults(faults)
	case *ftrouting.Router:
		if p.route, err = s.PrepareFaults(faults); err == nil {
			err = p.route.PrepareForbidden()
		}
	default:
		err = fmt.Errorf("unsupported scheme %T", o.scheme)
	}
	return p, err
}

// eval answers pairs on a prepared context.
func (p prepared) eval(endpoint string, pairs []ftrouting.Pair, opts ftrouting.BatchOptions) (answers, error) {
	var a answers
	var err error
	switch endpoint {
	case "connected":
		a.conn, err = p.conn.ConnectedBatch(pairs, opts)
	case "estimate":
		a.est, err = p.dist.EstimateBatch(pairs, opts)
	default:
		var rs []ftrouting.RouteResult
		rs, err = p.route.RouteForbiddenBatch(pairs, opts)
		for _, r := range rs {
			a.route = append(a.route, api.FromRouteResult(r))
		}
	}
	return a, err
}

// expect is the facade's answer to one request, evaluated sequentially.
func (o *oracle) expect(b ftrouting.QueryBatch, cache map[string]prepared) (answers, error) {
	key := fmt.Sprint(ftrouting.CanonicalFaults(b.Faults))
	p, ok := cache[key]
	if !ok {
		var err error
		if p, err = o.prepare(b.Faults); err != nil {
			return answers{}, err
		}
		if cache != nil {
			cache[key] = p
		}
	}
	return p.eval(o.endpoint, b.Pairs, ftrouting.BatchOptions{Parallelism: 1})
}

// check verifies every successful response in runs and returns the
// wrong ones. Failed requests are counted by the caller. workers
// goroutines share the facade evaluation; pooled fault sets reuse their
// prepared contexts.
func (o *oracle) check(runs []*sent, workers int, pooled bool) []wrongAnswer {
	var mu sync.Mutex
	var wrong []wrongAnswer
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cache map[string]prepared
			if pooled {
				cache = map[string]prepared{}
			}
			for i := w; i < len(runs); i += workers {
				s := runs[i]
				if s.failed() {
					continue
				}
				if why := o.checkOne(s, cache); why != "" {
					mu.Lock()
					wrong = append(wrong, wrongAnswer{s.index, why})
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	slices.SortFunc(wrong, func(a, b wrongAnswer) int { return cmp.Compare(a.index, b.index) })
	return wrong
}

func (o *oracle) checkOne(s *sent, cache map[string]prepared) string {
	got, err := o.decodeAnswers(s.body)
	if err != nil {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	b := o.gen.request(s.index)
	want, err := o.expect(b, cache)
	if err != nil {
		return fmt.Sprintf("facade error: %v", err)
	}
	if got.len() != len(b.Pairs) {
		return fmt.Sprintf("%d answers for %d pairs", got.len(), len(b.Pairs))
	}
	for p := range b.Pairs {
		if !sameAnswer(got, want, p) {
			return fmt.Sprintf("pair %d (%d,%d): served %s, facade %s",
				p, b.Pairs[p].S, b.Pairs[p].T, got.show(p), want.show(p))
		}
	}
	return ""
}

func sameAnswer(a, b answers, p int) bool {
	switch {
	case a.conn != nil:
		return a.conn[p] == b.conn[p]
	case a.est != nil:
		return a.est[p] == b.est[p]
	}
	x, y := a.route[p], b.route[p]
	if !slices.Equal(x.Trace, y.Trace) {
		return false
	}
	x.Trace, y.Trace = nil, nil
	return reflect.DeepEqual(x, y)
}

func (a answers) show(p int) string {
	switch {
	case a.conn != nil:
		return fmt.Sprint(a.conn[p])
	case a.est != nil:
		return fmt.Sprint(a.est[p])
	}
	r := a.route[p]
	return fmt.Sprintf("{reached %v cost %d opt %d hops %d}", r.Reached, r.Cost, r.Opt, r.Hops)
}

// truthSample picks up to n successful requests with a seeded draw and
// checks each pair against exact distances in G∖F:
//   - connectivity: the answer is "connected" iff t is reachable;
//   - estimates: d ≤ est ≤ StretchBound(|F|)·d, Unreachable iff d = ∞;
//   - routes: Reached iff reachable, Opt = d, Cost ≤ StretchBoundForbidden(|F|)·d.
func (o *oracle) truthSample(runs []*sent, n int, seed uint64) []wrongAnswer {
	var ok []*sent
	for _, s := range runs {
		if !s.failed() {
			ok = append(ok, s)
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x7472757468))
	r.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
	var wrong []wrongAnswer
	for _, s := range ok[:min(n, len(ok))] {
		if why := o.truthOne(s); why != "" {
			wrong = append(wrong, wrongAnswer{s.index, why})
		}
	}
	return wrong
}

func (o *oracle) truthOne(s *sent) string {
	got, err := o.decodeAnswers(s.body)
	if err != nil || got.len() != pairsPerRequest {
		return "undecodable response"
	}
	b := o.gen.request(s.index)
	canon := ftrouting.CanonicalFaults(b.Faults)
	set := ftrouting.NewEdgeSet(canon...)
	for p, pr := range b.Pairs {
		d := ftrouting.Distance(o.g, pr.S, pr.T, set)
		reach := d < ftrouting.Inf
		var bad bool
		switch o.endpoint {
		case "connected":
			bad = got.conn[p] != reach
		case "estimate":
			est := got.est[p]
			bound := o.scheme.(*ftrouting.DistLabels).StretchBound(len(canon))
			if reach {
				bad = est < d || est > bound*d
			} else {
				bad = est != ftrouting.Unreachable
			}
		default:
			rt := got.route[p]
			bound := o.scheme.(*ftrouting.Router).StretchBoundForbidden(len(canon))
			if reach {
				bad = !rt.Reached || rt.Opt != d || rt.Cost > bound*d
			} else {
				bad = rt.Reached
			}
		}
		if bad {
			return fmt.Sprintf("pair %d (%d,%d) faults %v: served %s, exact distance %d",
				p, pr.S, pr.T, canon, got.show(p), d)
		}
	}
	return ""
}
