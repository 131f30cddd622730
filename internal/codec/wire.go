package codec

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer serializes primitives to an io.Writer, maintaining a running
// CRC32-C over everything written. Errors are sticky: after the first
// failure every call is a no-op and Err/Finish report it.
type Writer struct {
	w   io.Writer
	crc hash.Hash32
	err error
	buf [8]byte
}

// NewWriter wraps w. Call WriteHeader first, then the payload, then
// Finish to append the checksum trailer (scheme files) or Err to close
// without one (not used for files; labels use byte-slice helpers).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, crc: crc32.New(castagnoli)}
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(p); err != nil {
		w.err = err
		return
	}
	w.crc.Write(p) // never errors
}

// Raw writes p verbatim.
func (w *Writer) Raw(p []byte) { w.write(p) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

// Bool writes 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[:2], v)
	w.write(w.buf[:2])
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// I32 writes a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Count writes a non-negative length.
func (w *Writer) Count(n int) {
	if w.err == nil && (n < 0 || n > MaxElems) {
		w.err = fmt.Errorf("codec: count %d out of range", n)
		return
	}
	w.U32(uint32(n))
}

// I32s writes a count-prefixed []int32.
func (w *Writer) I32s(s []int32) {
	w.Count(len(s))
	for _, v := range s {
		w.I32(v)
	}
}

// U64s writes a count-prefixed []uint64.
func (w *Writer) U64s(s []uint64) {
	w.Count(len(s))
	for _, v := range s {
		w.U64(v)
	}
}

// String writes a count-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Count(len(s))
	w.Raw([]byte(s))
}

// Err returns the first write error.
func (w *Writer) Err() error { return w.err }

// Checksum returns the CRC32-C of everything written so far. After Finish
// it equals the checksum trailer of the file, so writers of manifest
// files can record each shard file's checksum as they emit it.
func (w *Writer) Checksum() uint32 { return w.crc.Sum32() }

// Finish appends the CRC32-C of everything written so far (the trailer
// itself is not summed) and returns the first error.
func (w *Writer) Finish() error {
	if w.err != nil {
		return w.err
	}
	sum := w.crc.Sum32()
	binary.LittleEndian.PutUint32(w.buf[:4], sum)
	if _, err := w.w.Write(w.buf[:4]); err != nil {
		w.err = err
	}
	return w.err
}

// Reader deserializes primitives from an io.Reader, mirroring Writer.
// Truncation (EOF mid-payload) surfaces as ErrTruncated; errors are
// sticky.
type Reader struct {
	r       io.Reader
	crc     hash.Hash32
	err     error
	buf     [8]byte
	scratch []byte // bulk-read buffer, allocated on first use
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, crc: crc32.New(castagnoli)}
}

func (r *Reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.err = fmt.Errorf("%w: unexpected end of input", ErrTruncated)
		} else {
			r.err = err
		}
		return false
	}
	r.crc.Write(p)
	return true
}

// Raw reads len(p) bytes into p.
func (r *Reader) Raw(p []byte) { r.read(p) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.read(r.buf[:1]) {
		return 0
	}
	return r.buf[0]
}

// Bool reads a strict boolean: any byte other than 0 or 1 is corruption.
func (r *Reader) Bool() bool {
	v := r.U8()
	if r.err == nil && v > 1 {
		r.err = fmt.Errorf("%w: boolean byte %d", ErrCorrupt, v)
	}
	return v == 1
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.read(r.buf[:2]) {
		return 0
	}
	return binary.LittleEndian.Uint16(r.buf[:2])
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.read(r.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.read(r.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Count reads a length and validates it against max (and MaxElems).
func (r *Reader) Count(max int) int {
	v := r.U32()
	if r.err != nil {
		return 0
	}
	if max > MaxElems {
		max = MaxElems
	}
	if int64(v) > int64(max) {
		r.err = fmt.Errorf("%w: count %d exceeds bound %d", ErrCorrupt, v, max)
		return 0
	}
	return int(v)
}

// readChunk is the most records a bulk read (I32s, U64s, and the edge
// and tree-vertex loops of DecodeGraph and DecodeTree) takes from the
// underlying reader at once: one read and one checksum update per chunk
// instead of per value.
const readChunk = 1024

// maxRecord is the widest bulk-read record.
const maxRecord = edgeRecord

// chunk reads k records of size bytes each (k <= readChunk, size <=
// maxRecord) with one read. The bytes are valid until the next chunk
// call; nil means the read failed and Err says why.
func (r *Reader) chunk(k, size int) []byte {
	if r.scratch == nil {
		r.scratch = make([]byte, readChunk*maxRecord)
	}
	p := r.scratch[:k*size]
	if !r.read(p) {
		return nil
	}
	return p
}

// grow makes room for k more elements in a slice bound for n elements,
// at least doubling its capacity but never past n. A slice read chunk by
// chunk thus allocates in proportion to the records actually read (a
// lying count costs at most one chunk before truncation shows), and a
// slice of at most one chunk allocates exactly once.
func grow[T any](s []T, k, n int) []T {
	if len(s)+k <= cap(s) {
		return s
	}
	return append(make([]T, 0, min(max(2*cap(s), len(s)+k), n)), s...)
}

// I32s reads a count-prefixed []int32 of at most max elements.
func (r *Reader) I32s(max int) []int32 {
	n := r.Count(max)
	if r.err != nil || n == 0 {
		return nil
	}
	var out []int32
	for len(out) < n {
		k := min(n-len(out), readChunk)
		p := r.chunk(k, 4)
		if p == nil {
			return nil
		}
		out = grow(out, k, n)
		for i := 0; i < k; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(p[4*i:])))
		}
	}
	return out
}

// U64s reads a count-prefixed []uint64 of at most max elements.
func (r *Reader) U64s(max int) []uint64 {
	n := r.Count(max)
	if r.err != nil || n == 0 {
		return nil
	}
	var out []uint64
	for len(out) < n {
		k := min(n-len(out), readChunk)
		p := r.chunk(k, 8)
		if p == nil {
			return nil
		}
		out = grow(out, k, n)
		for i := 0; i < k; i++ {
			out = append(out, binary.LittleEndian.Uint64(p[8*i:]))
		}
	}
	return out
}

// String reads a count-prefixed string of at most max bytes.
func (r *Reader) String(max int) string {
	n := r.Count(max)
	if r.err != nil || n == 0 {
		return ""
	}
	buf := make([]byte, n)
	if !r.read(buf) {
		return ""
	}
	return string(buf)
}

// Corrupt records a structural validation failure (used by decoders that
// discover inconsistency after primitive reads succeeded).
func (r *Reader) Corrupt(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Err returns the first read error.
func (r *Reader) Err() error { return r.err }

// Checksum returns the CRC32-C of everything read so far. After a
// successful Finish it equals the file's checksum trailer, letting a
// manifest-driven loader cross-check a shard file against the checksum
// its manifest recorded (a valid-but-wrong shard file fails this check
// even though its own trailer verifies).
func (r *Reader) Checksum() uint32 { return r.crc.Sum32() }

// Finish reads the 4-byte CRC trailer and verifies it against everything
// read so far. It must be called exactly at the end of the payload.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(r.r, trailer[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.err = fmt.Errorf("%w: missing checksum trailer", ErrTruncated)
		} else {
			r.err = err
		}
		return r.err
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != want {
		r.err = fmt.Errorf("%w: file %08x, content %08x", ErrChecksum, got, want)
	}
	return r.err
}

// WriteHeader emits the shared artifact header.
func WriteHeader(w *Writer, kind Kind) {
	w.Raw([]byte(Magic))
	w.U16(Version)
	w.U16(uint16(kind))
}

// ReadHeader consumes the shared header and checks magic, version and
// kind. A mismatched kind reports what the artifact actually holds.
func ReadHeader(r *Reader, want Kind) error {
	got, err := ReadHeaderAny(r)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%w: file holds %s, expected %s", ErrKind, got, want)
	}
	return nil
}

// ReadHeaderAny consumes the shared header, checks magic and version, and
// returns the artifact kind (used to dispatch on unknown files).
func ReadHeaderAny(r *Reader) (Kind, error) {
	var m [4]byte
	r.Raw(m[:])
	if r.err != nil {
		return 0, r.err
	}
	if string(m[:]) != Magic {
		r.err = fmt.Errorf("%w: %q", ErrBadMagic, m[:])
		return 0, r.err
	}
	v := r.U16()
	kind := Kind(r.U16())
	if r.err != nil {
		return 0, r.err
	}
	if v != Version {
		r.err = fmt.Errorf("%w: file version %d, decoder supports %d", ErrVersion, v, Version)
		return 0, r.err
	}
	return kind, nil
}

// AppendHeader appends the shared header to a byte slice (label wire
// formats, which are marshaled into memory rather than streamed).
func AppendHeader(buf []byte, kind Kind) []byte {
	buf = append(buf, Magic...)
	var tmp [4]byte
	binary.LittleEndian.PutUint16(tmp[0:2], Version)
	binary.LittleEndian.PutUint16(tmp[2:4], uint16(kind))
	return append(buf, tmp[:]...)
}

// ConsumeHeader validates the shared header at the front of data and
// returns the payload that follows it.
func ConsumeHeader(data []byte, want Kind) ([]byte, error) {
	if len(data) < HeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(data), HeaderLen)
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("%w: label version %d, decoder supports %d", ErrVersion, v, Version)
	}
	if got := Kind(binary.LittleEndian.Uint16(data[6:8])); got != want {
		return nil, fmt.Errorf("%w: label holds %s, expected %s", ErrKind, got, want)
	}
	return data[HeaderLen:], nil
}
