package serve

// The query-endpoint table: the one place the four query endpoints
// differ. Every other stage of a request — decoding, planning, the local
// shard cache, the replica fan-out, timing and rendering — is shared and
// reaches endpoint-specific behavior only through a row of this table.

import (
	"context"
	"net/http"

	"ftrouting"
	"ftrouting/serve/api"
)

// endpoint is one row of the query-endpoint table. Result columns pass
// between the stages as `any` holding the row's wire element slice:
// []bool, []int64 or []api.RouteResult.
type endpoint struct {
	name string
	kind string // the scheme kind that answers it
	// eval runs a plan on prepared per-shard contexts (a Server).
	eval func(*ftrouting.BatchPlan, map[int]any, ftrouting.BatchOptions) (any, error)
	// query sends one sub-batch to a replica (a Proxy) and returns its
	// result column and echoed timing.
	query func(context.Context, *api.Client, *api.QueryRequest) (any, *api.Timing, error)
	// merge scatters sub-batch columns back into pair order and answers
	// the plan's trivial (cross-component) pairs from the directory.
	merge func(*ftrouting.BatchPlan, []ftrouting.SubBatch, []subAnswer) (any, *apiError)
	// render builds the response body from a column (nil for the
	// zero-pair response) and an optional timing echo.
	render func(results any, t *api.Timing) any
}

// newEndpoint builds a row whose wire result element is T and response
// body R. trivial is the answer every tier gives a cross-component pair
// without touching a shard: exactly what the plan executors compute.
func newEndpoint[T, R any](name, kind string,
	eval func(*ftrouting.BatchPlan, map[int]any, ftrouting.BatchOptions) ([]T, error),
	trivial func(ftrouting.Pair) T,
	wrap func([]T, *api.Timing) R,
	unwrap func(*R) ([]T, *api.Timing)) *endpoint {
	return &endpoint{
		name: name,
		kind: kind,
		eval: func(p *ftrouting.BatchPlan, ctxs map[int]any, opts ftrouting.BatchOptions) (any, error) {
			return eval(p, ctxs, opts)
		},
		query: func(ctx context.Context, c *api.Client, req *api.QueryRequest) (any, *api.Timing, error) {
			var resp R
			if err := c.Query(ctx, name, req, &resp); err != nil {
				return nil, nil, err
			}
			results, t := unwrap(&resp)
			return results, t, nil
		},
		merge: func(plan *ftrouting.BatchPlan, subs []ftrouting.SubBatch, answers []subAnswer) (any, *apiError) {
			out := make([]T, plan.NumPairs())
			for i, sub := range subs {
				results, _ := answers[i].results.([]T)
				if len(results) != len(sub.Pairs) {
					return nil, errorf(http.StatusInternalServerError, api.CodeInternal,
						"shard %d: replica answered %d results for %d pairs", sub.Shard, len(results), len(sub.Pairs))
				}
				for j, idx := range sub.Indices {
					out[idx] = results[j]
				}
			}
			for _, idx := range plan.TrivialPairs() {
				out[idx] = trivial(plan.Pair(idx))
			}
			return out, nil
		},
		render: func(results any, t *api.Timing) any {
			col, _ := results.([]T)
			if col == nil {
				col = []T{} // an empty batch answers [], never null
			}
			return wrap(col, t)
		},
	}
}

// routeWire adapts a routing plan executor to the wire result form.
func routeWire(exec func(*ftrouting.BatchPlan, map[int]any, ftrouting.BatchOptions) ([]ftrouting.RouteResult, error)) func(*ftrouting.BatchPlan, map[int]any, ftrouting.BatchOptions) ([]api.RouteResult, error) {
	return func(p *ftrouting.BatchPlan, ctxs map[int]any, opts ftrouting.BatchOptions) ([]api.RouteResult, error) {
		results, err := exec(p, ctxs, opts)
		if err != nil {
			return nil, err
		}
		wire := make([]api.RouteResult, len(results))
		for i, r := range results {
			wire[i] = api.FromRouteResult(r)
		}
		return wire, nil
	}
}

func trivialRoute(pr ftrouting.Pair) api.RouteResult {
	return api.FromRouteResult(ftrouting.TrivialRouteResult(pr))
}

func routeResponse(r []api.RouteResult, t *api.Timing) api.RouteResponse {
	return api.RouteResponse{Results: r, Timing: t}
}

func routeResults(r *api.RouteResponse) ([]api.RouteResult, *api.Timing) { return r.Results, r.Timing }

// endpoints is the query-endpoint table, served under /v1/<name>.
var endpoints = []*endpoint{
	newEndpoint("connected", "conn", (*ftrouting.BatchPlan).ConnectedBatch,
		func(ftrouting.Pair) bool { return false }, // different components never connect
		func(r []bool, t *api.Timing) api.ConnectedResponse {
			return api.ConnectedResponse{Results: r, Timing: t}
		},
		func(r *api.ConnectedResponse) ([]bool, *api.Timing) { return r.Results, r.Timing }),
	newEndpoint("estimate", "dist", (*ftrouting.BatchPlan).EstimateBatch,
		func(ftrouting.Pair) int64 { return ftrouting.Unreachable },
		func(r []int64, t *api.Timing) api.EstimateResponse {
			return api.EstimateResponse{Estimates: r, Timing: t}
		},
		func(r *api.EstimateResponse) ([]int64, *api.Timing) { return r.Estimates, r.Timing }),
	newEndpoint("route", "router", routeWire((*ftrouting.BatchPlan).RouteBatch),
		trivialRoute, routeResponse, routeResults),
	newEndpoint("route-forbidden", "router", routeWire((*ftrouting.BatchPlan).RouteForbiddenBatch),
		trivialRoute, routeResponse, routeResults),
}
