package ftrouting

import (
	"ftrouting/internal/core"
	"ftrouting/internal/graph"
)

// connScheme is one connected component's f-FT connectivity labeling,
// the cut scheme of Theorem 3.6 or the sketch scheme of Theorem 3.7 (one
// per-component contract, Section 3). Tree is the spanning tree it was
// labeled on; vertexLabel labels a local vertex with only the scheme
// label the decoder reads, and vertexBits sizes such a label in the
// n-vertex component; edgeLabel labels a local edge with its size. The
// component tag is left to the caller. prepare runs the decoder's
// fault-set half once, and connected on the returned context the
// per-pair half (safe for concurrent use).
type connScheme interface {
	Tree() *graph.Tree
	vertexLabel(v int32) VertexLabel
	vertexBits(l VertexLabel, n int) int
	edgeLabel(id graph.EdgeID, n int) EdgeLabel
	prepare(faults []EdgeLabel) (connContext, error)
}

type connContext interface {
	connected(s, t VertexLabel) (bool, error)
}

// cutComponent is a component under the cut scheme (Theorem 3.6).
type cutComponent struct{ *core.CutScheme }

func (s cutComponent) vertexLabel(v int32) VertexLabel {
	return VertexLabel{cut: s.VertexLabel(v)}
}

func (cutComponent) vertexBits(l VertexLabel, n int) int { return l.cut.BitLen(n) }

func (s cutComponent) edgeLabel(id graph.EdgeID, n int) EdgeLabel {
	l := s.EdgeLabel(id)
	return EdgeLabel{cut: l, bits: l.BitLen(n)}
}

func (s cutComponent) prepare(faults []EdgeLabel) (connContext, error) {
	fl := make([]core.CutEdgeLabel, len(faults))
	for i, f := range faults {
		fl[i] = f.cut
	}
	return cutContext{core.PrepareCutFaults(fl)}, nil
}

type cutContext struct{ *core.CutFaultContext }

func (x cutContext) connected(s, t VertexLabel) (bool, error) {
	return x.Decode(s.cut, t.cut), nil
}

// sketchComponent is a component under the sketch scheme (Theorem 3.7).
type sketchComponent struct{ *core.SketchScheme }

func (s sketchComponent) vertexLabel(v int32) VertexLabel {
	return VertexLabel{sketch: s.VertexLabel(v)}
}

func (sketchComponent) vertexBits(l VertexLabel, n int) int { return l.sketch.BitLen(n) }

func (s sketchComponent) edgeLabel(id graph.EdgeID, _ int) EdgeLabel {
	l := s.EdgeLabel(id)
	return EdgeLabel{sketch: l, bits: l.BitLen()}
}

func (s sketchComponent) prepare(faults []EdgeLabel) (connContext, error) {
	fl := make([]core.SketchEdgeLabel, len(faults))
	for i, f := range faults {
		fl[i] = f.sketch
	}
	ctx, err := s.PrepareFaults(fl, 0)
	if err != nil {
		return nil, err
	}
	return sketchContext{ctx}, nil
}

type sketchContext struct{ *core.SketchFaultContext }

func (x sketchContext) connected(s, t VertexLabel) (bool, error) {
	v, err := x.Decode(s.sketch, t.sketch, false)
	return err == nil && v.Connected, err
}
