package bits

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refVec is the byte-per-bit layout the packed Vec replaced, kept as the
// reference model FuzzVecOps replays op scripts against: one byte per
// bit and a plain loop per operation.
type refVec struct {
	bits []uint8 // one byte per bit; 0 or 1
}

func (r *refVec) Len() int            { return len(r.bits) }
func (r *refVec) Bit(i int) uint8     { return r.bits[i] }
func (r *refVec) FlipBit(i int)       { r.bits[i] ^= 1 }
func (r *refVec) AppendBit(b uint8)   { r.bits = append(r.bits, b&1) }
func (r *refVec) AppendVec(o *refVec) { r.bits = append(r.bits, o.bits...) }
func (r *refVec) Reset()              { r.bits = r.bits[:0] }
func (r *refVec) Clone() *refVec      { return r.Slice(0, r.Len()) }
func (r *refVec) Bytes() []byte       { return r.BytesRange(0, r.Len()) }

func (r *refVec) AppendUint(x uint64, n int) {
	for i := 0; i < n; i++ {
		r.AppendBit(uint8(x >> i))
	}
}

func (r *refVec) AppendBytes(bs []byte) {
	for _, b := range bs {
		r.AppendUint(uint64(b), 8)
	}
}

func (r *refVec) Uint(offset, n int) uint64 {
	var x uint64
	for i := 0; i < n; i++ {
		x |= uint64(r.bits[offset+i]) << i
	}
	return x
}

func (r *refVec) XorUint(offset int, x uint64, n int) {
	for i := 0; i < n; i++ {
		r.bits[offset+i] ^= uint8(x>>i) & 1
	}
}

func (r *refVec) Slice(from, to int) *refVec {
	return &refVec{bits: append([]uint8(nil), r.bits[from:to]...)}
}

func (r *refVec) AppendRange(o *refVec, from, to int) {
	r.bits = append(r.bits, o.bits[from:to]...)
}

func (r *refVec) BytesRange(from, to int) []byte {
	out := make([]byte, (to-from+7)/8)
	for i := from; i < to; i++ {
		out[(i-from)/8] |= r.bits[i] << ((i - from) % 8)
	}
	return out
}

func (r *refVec) Equal(o *refVec) bool {
	return bytes.Equal(r.bits, o.bits)
}

func (r *refVec) String() string {
	var sb strings.Builder
	for i, b := range r.bits {
		if i > 0 && i%4 == 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", b)
	}
	return sb.String()
}

func (r *refVec) Ones() int {
	n := 0
	for _, b := range r.bits {
		n += int(b)
	}
	return n
}

// opScript reads an op script byte by byte; past its end every read is
// zero, so any byte string is a valid script.
type opScript struct{ b []byte }

func (s *opScript) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *opScript) u16() int { return int(s.byte()) | int(s.byte())<<8 }

func (s *opScript) u64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x |= uint64(s.byte()) << (8 * i)
	}
	return x
}

// offset picks a position in [0, limit]; half the picks land within a few
// bits of a word boundary, where the packed layout splits a read.
func (s *opScript) offset(limit int) int {
	mode, off := s.byte(), s.u16()%(limit+1)
	if mode&1 == 1 {
		off = off/64*64 + int(mode>>1)%8 - 4
	}
	return max(0, min(limit, off))
}

// vecSlots is the number of vector pairs a script works on.
const vecSlots = 3

// checkVec compares v against its reference bit by bit and checks the
// packed invariants: one word per started 64 bits plus the word bit
// Len() would go into, and every bit past Len() zero.
func checkVec(t *testing.T, step int, v *Vec, r *refVec) {
	t.Helper()
	if v.Len() != r.Len() {
		t.Fatalf("step %d: Len %d, reference %d", step, v.Len(), r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if v.Bit(i) != r.Bit(i) {
			t.Fatalf("step %d: bit %d = %d, reference %d", step, i, v.Bit(i), r.Bit(i))
		}
	}
	if len(v.w) != v.n/64+1 {
		t.Fatalf("step %d: %d words for %d bits", step, len(v.w), v.n)
	}
	if tail := v.w[len(v.w)-1] >> (v.n % 64); tail != 0 {
		t.Fatalf("step %d: bits past Len() set: %#x", step, tail)
	}
}

// runVecScript replays script against the packed vector and the
// reference, comparing every result and the full state after each op.
func runVecScript(t *testing.T, script []byte) {
	s := &opScript{b: script}
	var vs [vecSlots]*Vec
	var rs [vecSlots]*refVec
	for k := range vs {
		vs[k], rs[k] = NewVec(0), &refVec{}
	}
	var dst []byte // reused by AppendBytesRange, stale bytes and all
	for step := 0; len(s.b) > 0; step++ {
		op, k, o := s.byte(), int(s.byte())%vecSlots, int(s.byte())%vecSlots
		v, r := vs[k], rs[k]
		n := r.Len()
		switch op % 18 {
		case 0:
			x, w := s.u64(), int(s.byte())%65
			v.AppendUint(x, w)
			r.AppendUint(x, w)
		case 1:
			b := s.byte()
			v.AppendBit(b)
			r.AppendBit(b)
		case 2:
			bs := make([]byte, int(s.byte())%24)
			for i := range bs {
				bs[i] = s.byte()
			}
			v.AppendBytes(bs)
			r.AppendBytes(bs)
		case 3:
			v.AppendVec(vs[o])
			r.AppendVec(rs[o])
		case 4:
			from := s.offset(n)
			to := from + s.offset(n-from)
			vs[o], rs[o] = v.Slice(from, to), r.Slice(from, to)
		case 5:
			vs[o], rs[o] = v.Clone(), r.Clone()
		case 6:
			if n > 0 {
				i := s.offset(n - 1)
				v.FlipBit(i)
				r.FlipBit(i)
			}
		case 7:
			w := min(n, int(s.byte())%65)
			off := s.offset(n - w)
			if got, want := v.Uint(off, w), r.Uint(off, w); got != want {
				t.Fatalf("step %d: Uint(%d, %d) = %#x, reference %#x", step, off, w, got, want)
			}
		case 8:
			w, x := min(n, int(s.byte())%65), s.u64()
			off := s.offset(n - w)
			v.XorUint(off, x, w)
			r.XorUint(off, x, w)
		case 9:
			if got, want := v.Bytes(), r.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("step %d: Bytes = %x, reference %x", step, got, want)
			}
		case 10:
			from := s.offset(n)
			to := from + s.offset(n-from)
			if got, want := v.BytesRange(from, to), r.BytesRange(from, to); !bytes.Equal(got, want) {
				t.Fatalf("step %d: BytesRange(%d, %d) = %x, reference %x", step, from, to, got, want)
			}
		case 11:
			if got, want := v.Equal(vs[o]), r.Equal(rs[o]); got != want {
				t.Fatalf("step %d: Equal = %v, reference %v", step, got, want)
			}
		case 12:
			if got, want := v.String(), r.String(); got != want {
				t.Fatalf("step %d: String = %q, reference %q", step, got, want)
			}
		case 13:
			if got, want := v.Ones(), r.Ones(); got != want {
				t.Fatalf("step %d: Ones = %d, reference %d", step, got, want)
			}
		case 14:
			// The air path's reuse: empty, then refill from the stale
			// words' capacity.
			v.Reset()
			r.Reset()
		case 15:
			m := rs[o].Len()
			from := s.offset(m)
			to := from + s.offset(m-from)
			v.AppendRange(vs[o], from, to)
			r.AppendRange(rs[o], from, to)
		case 16:
			from := s.offset(n)
			to := from + s.offset(n-from)
			keep := min(len(dst), int(s.byte())%4)
			want := append(append([]byte(nil), dst[:keep]...), r.BytesRange(from, to)...)
			dst = v.AppendBytesRange(dst[:keep], from, to)
			if !bytes.Equal(dst, want) {
				t.Fatalf("step %d: AppendBytesRange(%d, %d) = %x, reference %x", step, from, to, dst, want)
			}
		case 17:
			v.Grow(s.u16()) // capacity only; the reference has none
		}
		for j := range vs {
			checkVec(t, step, vs[j], rs[j])
		}
	}
}

// vecSeedScripts are hand-written scripts covering every op at and
// across word boundaries; FuzzVecOps starts from them.
func vecSeedScripts() [][]byte {
	u64 := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return [][]byte{
		// 63 bits, one more, then a straddling 64-bit append and read.
		cat([]byte{0, 0, 0}, u64(^uint64(0)), []byte{63, 1, 0, 0, 1},
			[]byte{0, 0, 0}, u64(0xDEADBEEFCAFEF00D), []byte{64},
			[]byte{7, 0, 0, 64, 1, 0, 0}),
		// Bytes in, slices and clones out, xor over a boundary, compare.
		cat([]byte{2, 0, 0, 19}, []byte("packed words, LSB1st"),
			[]byte{4, 0, 1, 1, 10, 0, 0, 200, 0}, []byte{5, 1, 2},
			[]byte{8, 0, 0, 40}, u64(0x0123456789ABCDEF), []byte{1, 64, 0},
			[]byte{11, 0, 1, 13, 2, 0, 9, 0, 0, 12, 0, 0, 10, 0, 0, 1, 5, 0, 1, 90, 0}),
		// Self-append on and off a word boundary, then flips.
		cat([]byte{0, 0, 0}, u64(0xF0F0F0F0F0F0F0F0), []byte{64, 3, 0, 0, 1, 0, 0, 1, 3, 0, 0},
			[]byte{6, 0, 0, 1, 129, 0, 6, 0, 0, 0, 60, 0, 13, 0, 0}),
		// Zero-width reads and writes at the end of a full word.
		cat([]byte{0, 0, 0}, u64(1), []byte{64, 7, 0, 0, 0, 0, 64, 0, 8, 0, 0, 0}, u64(5), []byte{0, 64, 0}),
		// Reuse: 130 bits, reset, a short refill over the stale words,
		// a range of another vector on and off a word boundary, and
		// bytes unpacked into a reused buffer.
		cat([]byte{0, 0, 0}, u64(^uint64(0)), []byte{64, 0, 0, 0}, u64(^uint64(0)), []byte{64, 1, 0, 0, 1},
			[]byte{5, 0, 1}, []byte{14, 0, 0, 0, 0, 0}, u64(0x5), []byte{3},
			[]byte{15, 0, 1, 1, 3, 0, 0, 1, 0, 0}, []byte{15, 2, 1, 0, 60, 0, 1, 40, 0},
			[]byte{16, 0, 0, 0, 0, 0, 0, 130, 0, 0}, []byte{16, 0, 0, 0, 2, 0, 0, 9, 0, 2},
			[]byte{14, 1, 0, 17, 1, 0, 0, 2}, []byte{0, 1, 0}, u64(^uint64(0)), []byte{64}),
	}
}

// FuzzVecOps replays arbitrary op scripts against the packed vector and
// the byte-per-bit reference model, comparing after every op.
func FuzzVecOps(f *testing.F) {
	for _, s := range vecSeedScripts() {
		f.Add(s)
	}
	f.Fuzz(runVecScript)
}

// TestVecMatchesReference runs random scripts through the same oracle,
// so plain `go test` covers the ops without a fuzzing run.
func TestVecMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		script := make([]byte, 64+r.Intn(1024))
		r.Read(script)
		runVecScript(t, script)
	}
}
