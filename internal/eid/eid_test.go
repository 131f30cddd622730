package eid

import (
	"reflect"
	"testing"

	"ftrouting/internal/ancestry"
	"ftrouting/internal/xrand"
)

func mkFields(u, v int32) Fields {
	return Fields{
		U: u, V: v,
		AncU:  ancestry.Label{In: uint32(2*u + 1), Out: uint32(2*u + 2)},
		AncV:  ancestry.Label{In: uint32(2*v + 1), Out: uint32(2*v + 2)},
		PortU: u % 7, PortV: v % 5,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l, err := NewLayout(100, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := mkFields(3, 42)
	f.ExtraU = []uint64{0xAA, 0xBB}
	f.ExtraV = []uint64{0xCC, 0xDD}
	w := l.Encode(7, f)
	if len(w) != l.Words() {
		t.Fatalf("len = %d, want %d", len(w), l.Words())
	}
	got := l.Decode(w)
	if got.U != 3 || got.V != 42 || got.AncU != f.AncU || got.AncV != f.AncV {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.PortU != f.PortU || got.PortV != f.PortV {
		t.Fatal("ports lost")
	}
	if got.ExtraU[0] != 0xAA || got.ExtraV[1] != 0xDD {
		t.Fatal("extras lost")
	}
	if got.UID != UID(7, 3, 42) {
		t.Fatal("UID not embedded")
	}
}

func TestEncodeCanonicalizes(t *testing.T) {
	l, err := NewLayout(100, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := mkFields(3, 42)
	f.ExtraU = []uint64{1}
	f.ExtraV = []uint64{2}
	rev := Fields{
		U: f.V, V: f.U,
		AncU: f.AncV, AncV: f.AncU,
		PortU: f.PortV, PortV: f.PortU,
		ExtraU: f.ExtraV, ExtraV: f.ExtraU,
	}
	a := l.Encode(9, f)
	b := l.Encode(9, rev)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("word %d differs between endpoint orders", i)
		}
	}
}

func TestUIDSymmetricNonzeroDistinct(t *testing.T) {
	if UID(1, 2, 3) != UID(1, 3, 2) {
		t.Fatal("UID not symmetric")
	}
	seen := make(map[uint64]bool)
	for u := int32(0); u < 50; u++ {
		for v := u + 1; v < 50; v++ {
			id := UID(5, u, v)
			if id == 0 {
				t.Fatal("zero UID")
			}
			if seen[id] {
				t.Fatalf("UID collision at (%d,%d)", u, v)
			}
			seen[id] = true
		}
	}
	if UID(1, 2, 3) == UID(2, 2, 3) {
		t.Fatal("UID ignores seed")
	}
}

func TestValidateAcceptsSingleEdge(t *testing.T) {
	l, err := NewLayout(1000, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := l.Encode(11, mkFields(5, 17))
	var f Fields
	ok := l.ValidateInto(w, 11, &f)
	if !ok || f.U != 5 || f.V != 17 {
		t.Fatalf("validate failed: %+v ok=%v", f, ok)
	}
}

func TestValidateRejectsZeroAndXors(t *testing.T) {
	l, err := NewLayout(1000, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	var f Fields
	if l.ValidateInto(make([]uint64, l.Words()), 11, &f) {
		t.Fatal("zero validated")
	}
	// XOR of two and of three identifiers must not validate.
	rng := xrand.NewSplitMix64(3)
	for trial := 0; trial < 2000; trial++ {
		k := 2 + trial%3
		acc := make([]uint64, l.Words())
		for i := 0; i < k; i++ {
			u := int32(rng.Intn(999))
			v := u + 1 + int32(rng.Intn(int(999-u)))
			Xor(acc, l.Encode(11, mkFields(u, v)))
		}
		if l.ValidateInto(acc, 11, &f) {
			// An XOR of distinct identifiers validating would need a PRF
			// collision; XORing an identifier with itself gives zero, which
			// is also rejected. Either way this must not happen.
			t.Fatalf("trial %d: XOR of %d identifiers validated", trial, k)
		}
	}
}

func TestValidateRejectsWrongSeed(t *testing.T) {
	l, err := NewLayout(1000, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := l.Encode(11, mkFields(5, 17))
	var f Fields
	if l.ValidateInto(w, 12, &f) {
		t.Fatal("wrong seed validated")
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	big, err := NewLayout(1000, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewLayout(10, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := big.Encode(11, mkFields(5, 500))
	var f Fields
	if small.ValidateInto(w, 11, &f) {
		t.Fatal("endpoint beyond layout.N validated")
	}
}

// TestValidateRejectsZeroHeaderAtEveryWidth pins the header-only
// rejection of empty cells: at every layout width (ports or not, any
// extra-payload width) an all-zero cell is rejected, and so is a cell whose
// header words (UID, endpoints, ancestry) are zero while its port and
// payload words are not. A rejection leaves the caller's Fields untouched.
func TestValidateRejectsZeroHeaderAtEveryWidth(t *testing.T) {
	for _, ports := range []bool{false, true} {
		for extra := 0; extra <= 3; extra++ {
			l, err := NewLayout(1000, ports, extra)
			if err != nil {
				t.Fatal(err)
			}
			sentinel := Fields{UID: 77, U: 1, V: 2, ExtraU: []uint64{5}}
			f := sentinel
			if l.ValidateInto(make([]uint64, l.Words()), 11, &f) {
				t.Fatalf("ports=%v extra=%d: all-zero cell validated", ports, extra)
			}
			if !reflect.DeepEqual(f, sentinel) {
				t.Fatalf("ports=%v extra=%d: rejection wrote Fields: %+v", ports, extra, f)
			}
			if l.Words() == 4 {
				continue // no payload words to set
			}
			w := make([]uint64, l.Words())
			for i := 4; i < len(w); i++ {
				w[i] = ^uint64(0) - uint64(i)
			}
			if l.ValidateInto(w, 11, &f) {
				t.Fatalf("ports=%v extra=%d: zero-header cell with payload validated", ports, extra)
			}
			if !reflect.DeepEqual(f, sentinel) {
				t.Fatalf("ports=%v extra=%d: rejection wrote Fields: %+v", ports, extra, f)
			}
		}
	}
}

func TestXorSelfInverse(t *testing.T) {
	l, err := NewLayout(100, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := mkFields(1, 2)
	f.ExtraU = []uint64{9, 9, 9}
	f.ExtraV = []uint64{8, 8, 8}
	w := l.Encode(1, f)
	acc := make([]uint64, l.Words())
	Xor(acc, w)
	Xor(acc, w)
	for i, x := range acc {
		if x != 0 {
			t.Fatalf("XOR not self-inverse: word %d is %#x", i, x)
		}
	}
}

func TestEndpointInfoAndOther(t *testing.T) {
	l, err := NewLayout(100, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := mkFields(4, 9)
	f.ExtraU = []uint64{111}
	f.ExtraV = []uint64{222}
	d := l.Decode(l.Encode(2, f))
	anc, port, extra := d.EndpointInfo(4)
	if anc != f.AncU || port != f.PortU || extra[0] != 111 {
		t.Fatal("EndpointInfo(U) wrong")
	}
	anc, port, extra = d.EndpointInfo(9)
	if anc != f.AncV || port != f.PortV || extra[0] != 222 {
		t.Fatal("EndpointInfo(V) wrong")
	}
	if d.Other(4) != 9 || d.Other(9) != 4 {
		t.Fatal("Other wrong")
	}
}

func TestLayoutWidths(t *testing.T) {
	l0, err := NewLayout(10, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l0.Words() != 4 {
		t.Fatalf("plain layout words = %d, want 4", l0.Words())
	}
	l1, err := NewLayout(10, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Words() != 5 {
		t.Fatalf("ports layout words = %d, want 5", l1.Words())
	}
	l2, err := NewLayout(10, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Words() != 5+6 {
		t.Fatalf("full layout words = %d, want 11", l2.Words())
	}
	if l2.Bits() != 64*11 {
		t.Fatal("Bits wrong")
	}
	if _, err := NewLayout(-1, false, 0); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := NewLayout(10, false, -1); err == nil {
		t.Fatal("negative extra accepted")
	}
}
