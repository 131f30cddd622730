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
	s  *Scheme
	nf int
	// conn restricts F to the instances the decodes reach (for those
	// holding no fault the connectivity decode is trivially "connected":
	// the instance tree is intact).
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

// Decode answers one pair against the prepared fault set; results are
// bit-identical to Scheme.Decode with the fault labels of the same ids.
func (ctx *FaultContext) Decode(sl, tl VertexLabel) (int64, error) {
	s := ctx.s
	if sl.Global == tl.Global {
		return 0, nil
	}
	for i := range s.inst {
		j := sl.Home[i]
		if j < 0 {
			continue
		}
		tEntry, ok := tl.find(i, j)
		if !ok {
			continue // t outside the 2^i-ball instance of s
		}
		sEntry, ok := sl.find(i, j)
		if !ok {
			return 0, fmt.Errorf("distlabel: vertex %d missing from its own home instance (%d,%d)", sl.Global, i, j)
		}
		inst := s.inst[i][j]
		prepared, okc, err := ctx.conn.Context(core.InstanceKey{Scale: i, Cluster: j}, inst.Cluster.Sub, inst.Conn)
		if err != nil {
			return 0, fmt.Errorf("distlabel: instance (%d,%d): %w", i, j, err)
		}
		connected := true
		if okc {
			v, err := prepared.Decode(sEntry, tEntry, false)
			if err != nil {
				return 0, err
			}
			connected = v.Connected
		}
		// No fault restricted to this instance: its tree is intact and the
		// connectivity decode is trivially "connected".
		if connected {
			return int64(4*s.k-1) * int64(ctx.nf+1) * (int64(1) << uint(i)), nil
		}
	}
	return Unreachable, nil
}
