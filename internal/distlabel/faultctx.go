package distlabel

import (
	"fmt"

	"ftrouting/internal/core"
	"ftrouting/internal/graph"
)

// FaultContext is a fault set preprocessed for repeated distance decodes.
// The per-instance connectivity fault contexts (Steps 1-3 of the sketch
// decoder) depend only on F, but the scale walk of Decode reads one home
// instance per scale and stops at the first connected scale, so each
// instance restricts F and prepares its context on the first Decode that
// reaches it, and every later Decode shares it. The context is safe for
// concurrent Decode calls.
type FaultContext struct {
	s    *Scheme
	nf   int
	conn *core.InstanceFaults
}

// PrepareFaults returns a context for the fault edges ids, which it keeps
// (the caller must not modify them). distinct is the |F| of the estimate
// formula (4k-1)(|F|+1)·2^i: DistinctFaults of the whole fault set, which
// a sharded deployment passes for a shard-restricted ids so per-shard
// decodes stay bit-identical to a whole-scheme decode.
func (s *Scheme) PrepareFaults(ids []graph.EdgeID, distinct int) *FaultContext {
	return &FaultContext{s: s, nf: distinct, conn: core.NewInstanceFaults(ids)}
}

// Decode answers one pair of vertex ids against the prepared fault set;
// results are bit-identical to Scheme.Decode on the vertex labels of s and
// t and the fault labels of the same ids. The walk reads the hierarchy
// directly, as the forbidden-set router does: per scale the home cluster
// i*(s), skipped when t lies outside it. An endpoint in a component a
// partial (shard) scheme does not hold is an error.
func (ctx *FaultContext) Decode(s, t int32) (int64, error) {
	sch := ctx.s
	if err := sch.hier.CheckHeld(s, t); err != nil {
		return 0, err
	}
	if s == t {
		return 0, nil
	}
	for i := range sch.inst {
		j := sch.hier.Home(i, s)
		inst := sch.inst[i][j]
		lt, ok := inst.Cluster.Sub.LocalVertex(t)
		if !ok {
			continue // t outside the 2^i-ball instance of s
		}
		ls, ok := inst.Cluster.Sub.LocalVertex(s)
		if !ok {
			return 0, fmt.Errorf("distlabel: vertex %d missing from its own home instance (%d,%d)", s, i, j)
		}
		prepared, err := ctx.conn.Context(core.InstanceKey{Scale: i, Cluster: j}, inst.Cluster.Sub, inst.Conn)
		if err != nil {
			return 0, fmt.Errorf("distlabel: instance (%d,%d): %w", i, j, err)
		}
		v, err := prepared.Decode(inst.Conn.VertexLabel(ls), inst.Conn.VertexLabel(lt), false)
		if err != nil {
			return 0, err
		}
		if v.Connected {
			return int64(4*sch.k-1) * int64(ctx.nf+1) * (int64(1) << uint(i)), nil
		}
	}
	return Unreachable, nil
}
