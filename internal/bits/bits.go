// Package bits provides the bit-level data types shared by the coding,
// packet and channel layers: bit vectors in on-air (LSB-first) order,
// packed 64 bits to a word so the codecs above can work a word at a
// time.
package bits

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Vec is a bit vector in transmission order: bit 0 is the first bit on
// air. Bluetooth transmits each field LSB first, so AppendUint pushes the
// low-order bit first.
//
// Bits are packed LSB-first into 64-bit words: bit i lives in word i/64
// at position i%64. Every bit past Len() is zero, and the word that bit
// Len() would go into always exists, so vectors compare, count and copy
// a word at a time and a read of up to 64 bits at any offset touches at
// most two words without a length branch. Multi-bit reads and writes
// (Uint, XorUint, AppendUint) move up to 64 bits per call. Vectors are
// made by NewVec or FromBools; the zero Vec is ready for use after
// Reset, which also empties a used vector for reuse without giving up
// its words.
type Vec struct {
	w []uint64 // len(w) == n/64 + 1; bits past n are zero
	n int
}

// NewVec returns an empty vector with capacity for n bits.
func NewVec(n int) *Vec { return &Vec{w: make([]uint64, 1, n/64+1)} }

// Reset empties the vector, keeping its capacity for the next appends:
// the air path refills one vector per packet instead of allocating.
func (v *Vec) Reset() {
	if cap(v.w) == 0 {
		v.w = make([]uint64, 1)
	}
	v.w = v.w[:1]
	v.w[0] = 0
	v.n = 0
}

// Grow makes room for n more bits, so appending up to n bits does not
// reallocate: the air path sizes a reused vector once for each packet
// instead of growing it word by word on first use.
func (v *Vec) Grow(n int) {
	v.w = slices.Grow(v.w, (v.n+n)/64+1-len(v.w))
}

// FromBools builds a vector from explicit bit values.
func FromBools(vals ...bool) *Vec {
	v := NewVec(len(vals))
	for _, b := range vals {
		v.AppendBit(boolToBit(b))
	}
	return v
}

func boolToBit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// rangeError is the panic value of an out-of-range access. The message
// is formatted only when printed, so the range checks in the hot
// accessors cost a compare and stay within the inlining budget — an
// out-of-line helper call alone would use most of it.
type rangeError struct {
	op                string
	offset, n, length int
}

func (e rangeError) Error() string {
	return fmt.Sprintf("bits: %s [%d:+%d] out of range for length %d", e.op, e.offset, e.n, e.length)
}

// Len returns the number of bits.
func (v *Vec) Len() int { return v.n }

// Bit returns bit i (0 or 1).
func (v *Vec) Bit(i int) uint8 {
	if uint(i) >= uint(v.n) {
		panic(rangeError{"Bit", i, 1, v.n})
	}
	return uint8(v.w[uint(i)/64]>>(uint(i)%64)) & 1
}

// FlipBit inverts bit i (the channel's noise model).
func (v *Vec) FlipBit(i int) {
	if uint(i) >= uint(v.n) {
		panic(rangeError{"FlipBit", i, 1, v.n})
	}
	v.w[uint(i)/64] ^= 1 << (uint(i) % 64)
}

// AppendBit appends one bit.
func (v *Vec) AppendBit(b uint8) {
	v.w[len(v.w)-1] |= uint64(b&1) << (uint(v.n) % 64)
	v.n++
	if v.n%64 == 0 {
		v.w = append(v.w, 0)
	}
}

// AppendUint appends the low n bits of x, LSB first (Bluetooth field
// order). Widths beyond 64 append zeros for the missing high bits.
func (v *Vec) AppendUint(x uint64, n int) {
	if uint(n) > 64 {
		v.appendWide(x, n)
		return
	}
	x &= 1<<n - 1
	s := uint(v.n) % 64
	v.w[len(v.w)-1] |= x << s
	if s+uint(n) >= 64 {
		v.w = append(v.w, x>>(64-s))
	}
	v.n += n
}

// appendWide is AppendUint for widths outside 0..64.
func (v *Vec) appendWide(x uint64, n int) {
	for ; n > 0; n -= 64 {
		v.AppendUint(x, min(n, 64))
		x = 0
	}
}

// AppendVec appends all bits of o.
func (v *Vec) AppendVec(o *Vec) {
	if v.n%64 == 0 {
		// Word-aligned: o's words, sentinel included, replace v's
		// all-zero sentinel.
		v.w = append(v.w[:len(v.w)-1], o.w...)
		v.n += o.n
		return
	}
	v.AppendRange(o, 0, o.n)
}

// AppendRange appends bits [from, to) of o a word at a time.
func (v *Vec) AppendRange(o *Vec, from, to int) {
	if from < 0 || from > to || to > o.n {
		panic(rangeError{"AppendRange", from, to - from, o.n})
	}
	for ; from < to; from += 64 {
		k := min(64, to-from)
		v.AppendUint(o.Uint(from, k), k)
	}
}

// AppendBytes appends bytes LSB-first, in slice order: eight bytes are
// one little-endian word, split over the last word and a new one.
func (v *Vec) AppendBytes(bs []byte) {
	v.Grow(8 * len(bs)) // a vector NewVec sized for these bytes does not grow
	s := uint(v.n) % 64
	for ; len(bs) >= 8; bs = bs[8:] {
		x := binary.LittleEndian.Uint64(bs)
		v.w[len(v.w)-1] |= x << s
		v.w = append(v.w, x>>(64-s))
		v.n += 64
	}
	var x uint64
	for i, b := range bs {
		x |= uint64(b) << (8 * i)
	}
	v.AppendUint(x, 8*len(bs))
}

// Uint reads n <= 64 bits starting at offset, LSB first, as an integer.
// It panics if the range exceeds the vector.
func (v *Vec) Uint(offset, n int) uint64 {
	if uint(n) > 64 || offset < 0 || offset > v.n-n {
		panic(rangeError{"Uint", offset, n, v.n})
	}
	s := uint(offset) % 64
	x := v.w[uint(offset)/64] >> s
	if s+uint(n) > 64 {
		x |= v.w[uint(offset)/64+1] << (64 - s)
	}
	return x & (1<<n - 1)
}

// XorUint XORs the low n <= 64 bits of x, LSB first, into bits
// [offset, offset+n): the whitening stream goes in a word per call.
func (v *Vec) XorUint(offset int, x uint64, n int) {
	if uint(n) > 64 || offset < 0 || offset > v.n-n {
		panic(rangeError{"XorUint", offset, n, v.n})
	}
	x &= 1<<n - 1
	s := uint(offset) % 64
	v.w[uint(offset)/64] ^= x << s
	if s+uint(n) > 64 {
		v.w[uint(offset)/64+1] ^= x >> (64 - s)
	}
}

// Slice returns an independent copy of bits [from, to).
func (v *Vec) Slice(from, to int) *Vec {
	if from < 0 || from > to || to > v.n {
		panic(rangeError{"Slice", from, to - from, v.n})
	}
	out := NewVec(to - from)
	out.AppendRange(v, from, to)
	return out
}

// Clone returns a deep copy.
func (v *Vec) Clone() *Vec {
	return &Vec{w: slices.Clone(v.w), n: v.n}
}

// Bytes packs the bits into bytes, LSB-first within each byte; the last
// byte is zero-padded. This inverts AppendBytes.
func (v *Vec) Bytes() []byte { return v.BytesRange(0, v.n) }

// BytesRange packs bits [from, to) into bytes like Bytes, without an
// intermediate Slice copy.
func (v *Vec) BytesRange(from, to int) []byte {
	if from < 0 || from > to || to > v.n {
		panic(rangeError{"BytesRange", from, to - from, v.n})
	}
	return v.AppendBytesRange(make([]byte, 0, (to-from+7)/8), from, to)
}

// AppendBytesRange appends bits [from, to), packed like BytesRange, to
// dst and returns the extended slice: the receive path unpacks payloads
// into a buffer it reuses.
func (v *Vec) AppendBytesRange(dst []byte, from, to int) []byte {
	if from < 0 || from > to || to > v.n {
		panic(rangeError{"AppendBytesRange", from, to - from, v.n})
	}
	for ; to-from >= 64; from += 64 {
		dst = binary.LittleEndian.AppendUint64(dst, v.Uint(from, 64))
	}
	for ; from < to; from += 8 {
		dst = append(dst, byte(v.Uint(from, min(8, to-from))))
	}
	return dst
}

// Equal reports whether v and o hold identical bits.
func (v *Vec) Equal(o *Vec) bool {
	return v.n == o.n && slices.Equal(v.w, o.w)
}

// String renders the vector as a 0/1 string in air order, grouping
// nibbles for readability.
func (v *Vec) String() string {
	var sb strings.Builder
	for i := 0; i < v.n; i++ {
		if i > 0 && i%4 == 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte('0' + v.Bit(i))
	}
	return sb.String()
}

// Ones counts set bits.
func (v *Vec) Ones() int {
	n := 0
	for _, w := range v.w {
		n += bits.OnesCount64(w)
	}
	return n
}
