package distlabel

import (
	"fmt"

	"ftrouting/internal/core"
)

// FaultContext is a fault set preprocessed for repeated distance decodes.
// The distinct-fault count and the per-instance restriction of the fault
// labels depend only on F and are computed by PrepareFaults. The
// per-instance connectivity fault contexts (Steps 1-3 of the sketch
// decoder) also depend only on F, but the scale walk of Decode reads one
// home instance per scale and stops at the first connected scale, so each
// is prepared by the first Decode that reaches its instance and shared by
// every later one. The restriction is immutable after PrepareFaults, the
// lazily prepared contexts are built at most once, and the context is safe
// for concurrent Decode calls.
type FaultContext struct {
	s  *Scheme
	nf int
	// conn restricts F to the instances holding at least one fault entry
	// (for the rest the connectivity decode is trivially "connected": the
	// instance tree is intact).
	conn *core.InstanceFaults
}

// PrepareFaults runs the per-fault-set part of Decode once: count the
// distinct faults and restrict them to every instance that contains one.
// Each instance's connectivity context is prepared on first use.
func (s *Scheme) PrepareFaults(faults []EdgeLabel) *FaultContext {
	return s.PrepareFaultsWithCount(faults, countDistinct(faults))
}

// PrepareFaultsWithCount is PrepareFaults with the distinct-fault count
// supplied by the caller instead of derived from the fault labels. A
// sharded deployment restricts F to one shard's components before label
// assembly, which would undercount |F| in the estimate formula
// (4k-1)(|F|+1)·2^i; the shard planner passes the global count here so
// per-shard decodes stay bit-identical to a whole-scheme decode.
func (s *Scheme) PrepareFaultsWithCount(faults []EdgeLabel, distinct int) *FaultContext {
	ctx := &FaultContext{s: s, nf: distinct, conn: core.NewInstanceFaults()}
	// Restrict in the same (faults outer, entries inner) order Decode
	// filters them, so prepared decodes see the fault labels in the
	// identical sequence.
	for _, f := range faults {
		for _, e := range f.Entries {
			inst := s.instance(e.Scale, e.Cluster)
			if inst == nil {
				// Entries of foreign or corrupted labels that address no
				// instance of this scheme can never be selected by Decode's
				// (scale, home-cluster) walk; skip rather than fail so
				// prepared and direct decodes accept the same inputs.
				continue
			}
			ctx.conn.Add(core.InstanceKey{Scale: e.Scale, Cluster: e.Cluster}, inst.Conn, e.L)
		}
	}
	return ctx
}

// instance returns instance (scale, cluster), or nil when the coordinates
// address none of this scheme's built instances.
func (s *Scheme) instance(scale int, cluster int32) *Instance {
	if scale < 0 || scale >= len(s.inst) || cluster < 0 || int(cluster) >= len(s.inst[scale]) {
		return nil
	}
	return s.inst[scale][cluster]
}

// Decode answers one pair against the prepared fault set; results are
// bit-identical to Scheme.Decode with the same fault labels.
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
		prepared, okc, err := ctx.conn.Context(core.InstanceKey{Scale: i, Cluster: j})
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
		// No fault entry restricted to this instance: its tree is intact
		// and the connectivity decode is trivially "connected".
		if connected {
			return int64(4*s.k-1) * int64(ctx.nf+1) * (int64(1) << uint(i)), nil
		}
	}
	return Unreachable, nil
}
