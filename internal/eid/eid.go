// Package eid implements the extended edge identifiers of Eq. (1) and
// Eq. (5): fixed-width, XOR-able encodings of an edge carrying a
// pseudo-random unique identifier UID(e), the endpoint IDs, the endpoints'
// ancestry labels and — when built for routing — the two port numbers and
// the endpoints' tree-routing labels.
//
// The XOR-ability is what makes graph sketches work: cells of a sketch are
// XORs of extended identifiers, and ValidateInto (Lemma 3.10) decides
// whether a cell currently holds exactly one edge by recomputing UID(U,V)
// from the seed and comparing. The UID is a keyed SplitMix64 PRF over the
// canonical endpoint pair (see DESIGN.md for the substitution of the
// paper's epsilon-bias construction).
package eid

import (
	"fmt"

	"ftrouting/internal/ancestry"
	"ftrouting/internal/xrand"
)

// Layout describes the fixed word layout of extended identifiers for one
// labeling instance. All identifiers of an instance share a layout.
//
// Word layout:
//
//	word 0                UID
//	word 1                U | V<<32            (canonical U < V)
//	word 2                AncU.In | AncU.Out<<32
//	word 3                AncV.In | AncV.Out<<32
//	word 4 (ports only)   PortU | PortV<<32
//	next ExtraWords       ExtraU payload (e.g. encoded tree-routing label of U)
//	next ExtraWords       ExtraV payload
type Layout struct {
	N          int32 // vertex count of the instance, for range validation
	WithPorts  bool
	ExtraWords int // per endpoint

	words     int
	portWord  int // -1 if absent
	extraUOff int // -1 if absent
	extraVOff int
}

// NewLayout builds a layout for an instance with n vertices.
func NewLayout(n int, withPorts bool, extraWords int) (*Layout, error) {
	if n < 0 || n > 1<<31-1 {
		return nil, fmt.Errorf("eid: vertex count %d out of range", n)
	}
	if extraWords < 0 {
		return nil, fmt.Errorf("eid: negative extra words")
	}
	l := &Layout{N: int32(n), WithPorts: withPorts, ExtraWords: extraWords,
		portWord: -1, extraUOff: -1, extraVOff: -1}
	w := 4
	if withPorts {
		l.portWord = w
		w++
	}
	if extraWords > 0 {
		l.extraUOff = w
		w += extraWords
		l.extraVOff = w
		w += extraWords
	}
	l.words = w
	return l, nil
}

// Words returns the number of 64-bit words per identifier.
func (l *Layout) Words() int { return l.words }

// Bits returns the identifier length in bits (the paper's O(log n) plus the
// optional routing payload).
func (l *Layout) Bits() int { return 64 * l.words }

// Fields is the decoded content of an extended identifier. U < V always
// (canonical order); AncU/PortU/ExtraU belong to endpoint U.
type Fields struct {
	UID          uint64
	U, V         int32
	AncU, AncV   ancestry.Label
	PortU, PortV int32
	ExtraU       []uint64
	ExtraV       []uint64
}

// UID computes the pseudo-random unique identifier of the edge {u,v} under
// the given seed. It is symmetric in u,v (canonicalized internally) and
// never zero, so an all-zero cell is never a valid identifier.
func UID(seed uint64, u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	h := xrand.Hash(seed, uint64(uint32(u)), uint64(uint32(v)))
	if h == 0 {
		h = 1
	}
	return h
}

// Encode packs fields into the layout. The endpoints are canonicalized:
// callers may pass U/V (with their matching Anc/Port/Extra) in either
// order. The UID field is ignored; it is recomputed from seed.
func (l *Layout) Encode(seed uint64, f Fields) []uint64 {
	if f.U > f.V {
		f.U, f.V = f.V, f.U
		f.AncU, f.AncV = f.AncV, f.AncU
		f.PortU, f.PortV = f.PortV, f.PortU
		f.ExtraU, f.ExtraV = f.ExtraV, f.ExtraU
	}
	w := make([]uint64, l.words)
	w[0] = UID(seed, f.U, f.V)
	w[1] = uint64(uint32(f.U)) | uint64(uint32(f.V))<<32
	w[2] = uint64(f.AncU.In) | uint64(f.AncU.Out)<<32
	w[3] = uint64(f.AncV.In) | uint64(f.AncV.Out)<<32
	if l.portWord >= 0 {
		w[l.portWord] = uint64(uint32(f.PortU)) | uint64(uint32(f.PortV))<<32
	}
	if l.extraUOff >= 0 {
		copy(w[l.extraUOff:l.extraUOff+l.ExtraWords], f.ExtraU)
		copy(w[l.extraVOff:l.extraVOff+l.ExtraWords], f.ExtraV)
	}
	return w
}

// Decode unpacks an identifier without validating it.
func (l *Layout) Decode(w []uint64) Fields {
	f := Fields{
		UID:  w[0],
		U:    int32(uint32(w[1])),
		V:    int32(uint32(w[1] >> 32)),
		AncU: ancestry.Label{In: uint32(w[2]), Out: uint32(w[2] >> 32)},
		AncV: ancestry.Label{In: uint32(w[3]), Out: uint32(w[3] >> 32)},
	}
	if l.portWord >= 0 {
		f.PortU = int32(uint32(w[l.portWord]))
		f.PortV = int32(uint32(w[l.portWord] >> 32))
	}
	if l.extraUOff >= 0 {
		f.ExtraU = append([]uint64(nil), w[l.extraUOff:l.extraUOff+l.ExtraWords]...)
		f.ExtraV = append([]uint64(nil), w[l.extraVOff:l.extraVOff+l.ExtraWords]...)
	}
	return f
}

// DecodeInto unpacks an identifier into f, reusing f's extra-payload slice
// capacity. Once f's slices have grown to ExtraWords, repeated decodes
// perform no heap allocations — the hot-loop counterpart of Decode.
func (l *Layout) DecodeInto(w []uint64, f *Fields) {
	f.UID = w[0]
	f.U = int32(uint32(w[1]))
	f.V = int32(uint32(w[1] >> 32))
	f.AncU = ancestry.Label{In: uint32(w[2]), Out: uint32(w[2] >> 32)}
	f.AncV = ancestry.Label{In: uint32(w[3]), Out: uint32(w[3] >> 32)}
	if l.portWord >= 0 {
		f.PortU = int32(uint32(w[l.portWord]))
		f.PortV = int32(uint32(w[l.portWord] >> 32))
	} else {
		f.PortU, f.PortV = 0, 0
	}
	if l.extraUOff >= 0 {
		f.ExtraU = append(f.ExtraU[:0], w[l.extraUOff:l.extraUOff+l.ExtraWords]...)
		f.ExtraV = append(f.ExtraV[:0], w[l.extraVOff:l.extraVOff+l.ExtraWords]...)
	} else {
		f.ExtraU, f.ExtraV = nil, nil
	}
}

// ValidateInto implements Lemma 3.10: it decides whether w is the
// identifier of a single edge (as opposed to zero or the XOR of two or more
// identifiers), by checking the endpoint range and recomputing the UID from
// the seed, and on success decodes w into f (reusing its extra-payload
// capacity, see DecodeInto). f is only written on success. An all-zero
// cell needs no scan of its own: its word 1 reads U = V = 0, which fails
// U < V like every other cell whose header words are zero. False positives
// require a 64-bit PRF collision.
func (l *Layout) ValidateInto(w []uint64, seed uint64, f *Fields) bool {
	u := int32(uint32(w[1]))
	v := int32(uint32(w[1] >> 32))
	if u < 0 || v < 0 || u >= v || v >= l.N {
		return false
	}
	if w[0] != UID(seed, u, v) {
		return false
	}
	au := ancestry.Label{In: uint32(w[2]), Out: uint32(w[2] >> 32)}
	av := ancestry.Label{In: uint32(w[3]), Out: uint32(w[3] >> 32)}
	if !au.Valid() || !av.Valid() {
		return false
	}
	l.DecodeInto(w, f)
	return true
}

// EndpointInfo returns the ancestry label, port, and extra payload of the
// endpoint x of f, which must be f.U or f.V.
func (f Fields) EndpointInfo(x int32) (ancestry.Label, int32, []uint64) {
	switch x {
	case f.U:
		return f.AncU, f.PortU, f.ExtraU
	case f.V:
		return f.AncV, f.PortV, f.ExtraV
	}
	panic(fmt.Sprintf("eid: vertex %d is not an endpoint of (%d,%d)", x, f.U, f.V))
}

// Other returns the endpoint that is not x.
func (f Fields) Other(x int32) int32 {
	if x == f.U {
		return f.V
	}
	return f.U
}

// Xor XORs src into dst in place. Both must have the layout's width.
func Xor(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}
