package coding

import (
	mbits "math/bits"

	"repro/internal/bits"
)

// The HEC and CRC below are shift registers clocked by the air stream,
// whose first bit sits in bit 0 of a packed word. They run reflected:
// the register is kept bit-reversed, so a byte of air bits indexes the
// table as it lies in the word, and the result is reversed back once at
// the end. The tables are derived from the generators below.

// hecGen is the HEC generator polynomial g(D) = D^8 + D^7 + D^5 + D^2 +
// D + 1 (Bluetooth 1.2 part B §7.1.1), coefficients of D^0..D^7 in the
// low bits; the D^8 term is implicit in the shift-out.
const hecGen = 0b10100111

// hecGenRev is hecGen bit-reversed, for the reflected register.
const hecGenRev = 0b11100101

// hecTab[b] is the reflected HEC register after clocking the eight air
// bits of b (first bit in bit 0) through register b.
var hecTab = func() (tab [256]uint8) {
	for b := 0; b < 256; b++ {
		r := uint8(b)
		for i := 0; i < 8; i++ {
			r = r>>1 ^ -(r&1)&hecGenRev
		}
		tab[b] = r
	}
	return
}()

// hecStep clocks the low n bits of x, first bit in bit 0, through the
// reflected HEC register r.
func hecStep(r uint8, x uint64, n int) uint8 {
	for ; n >= 8; n -= 8 {
		r = hecTab[r^uint8(x)]
		x >>= 8
	}
	for ; n > 0; n-- {
		r = r>>1 ^ -((r^uint8(x))&1)&hecGenRev
		x >>= 1
	}
	return r
}

// HECUint computes the HEC over the low n <= 64 bits of x in air order
// (bit 0 first) — the header as an integer, as the packet layer holds
// it. The register starts at the UAP.
func HECUint(x uint64, n int, uap uint8) uint8 {
	return mbits.Reverse8(hecStep(mbits.Reverse8(uap), x, n))
}

// HEC computes the 8-bit header error check over the 10 header bits,
// with the LFSR initialised to the device's UAP, exactly as the link
// controller does before FEC-1/3 encoding the header.
func HEC(header *bits.Vec, uap uint8) uint8 {
	return HECRange(header, 0, header.Len(), uap)
}

// HECRange computes the HEC over bits [from, to) of v in place.
func HECRange(v *bits.Vec, from, to int, uap uint8) uint8 {
	r := mbits.Reverse8(uap)
	for ; from < to; from += 64 {
		n := min(64, to-from)
		r = hecStep(r, v.Uint(from, n), n)
	}
	return mbits.Reverse8(r)
}

// CheckHEC recomputes the HEC and compares.
func CheckHEC(header *bits.Vec, uap, got uint8) bool {
	return HEC(header, uap) == got
}

// crcGen is the CRC-16 CCITT generator D^16 + D^12 + D^5 + 1.
const crcGen = 0x1021

// crcGenRev is crcGen bit-reversed, for the reflected register.
const crcGenRev = 0x8408

// crcTab[0][b] is the reflected CRC register delta after clocking the
// eight air bits of b (first bit in bit 0) through register b, and
// crcTab[k][b] the delta of byte b followed by k zero bytes, so eight
// independent lookups clock a whole 64-bit word (slicing by eight).
var crcTab = func() (tab [8][256]uint16) {
	for b := 0; b < 256; b++ {
		r := uint16(b)
		for i := 0; i < 8; i++ {
			r = r>>1 ^ -(r&1)&crcGenRev
		}
		tab[0][b] = r
	}
	for k := 1; k < 8; k++ {
		for b := 0; b < 256; b++ {
			r := tab[k-1][b]
			tab[k][b] = r>>8 ^ tab[0][uint8(r)]
		}
	}
	return
}()

// CRC16 computes the payload CRC with the register preset to UAP in the
// high byte (Bluetooth 1.2 part B §7.1.2).
func CRC16(payload *bits.Vec, uap uint8) uint16 {
	return CRC16Range(payload, 0, payload.Len(), uap)
}

// CRC16Range computes the CRC over bits [from, to) of v in place — the
// parser checks received payloads without copying them out first. It
// reads 64 air bits at a time: a whole word costs eight table lookups,
// a partial one a byte per table step.
func CRC16Range(v *bits.Vec, from, to int, uap uint8) uint16 {
	r := uint16(mbits.Reverse8(uap)) // Reverse16(uap << 8)
	for ; to-from >= 64; from += 64 {
		x := v.Uint(from, 64) ^ uint64(r)
		r = crcTab[7][uint8(x)] ^ crcTab[6][uint8(x>>8)] ^
			crcTab[5][uint8(x>>16)] ^ crcTab[4][uint8(x>>24)] ^
			crcTab[3][uint8(x>>32)] ^ crcTab[2][uint8(x>>40)] ^
			crcTab[1][uint8(x>>48)] ^ crcTab[0][uint8(x>>56)]
	}
	n := to - from
	x := v.Uint(from, n)
	for ; n >= 8; n -= 8 {
		r = r>>8 ^ crcTab[0][uint8(r)^uint8(x)]
		x >>= 8
	}
	for ; n > 0; n-- {
		r = r>>1 ^ -((r^uint16(x))&1)&crcGenRev
		x >>= 1
	}
	return mbits.Reverse16(r)
}

// CheckCRC16 recomputes the payload CRC and compares.
func CheckCRC16(payload *bits.Vec, uap uint8, got uint16) bool {
	return CRC16(payload, uap) == got
}

// Whitener is the data-whitening LFSR g(D) = D^7 + D^4 + 1, seeded from
// the master clock bits CLK6-1 with bit 6 forced to one (Bluetooth 1.2
// part B §7.2). Whitening is applied to header and payload after
// HEC/CRC generation and removed before checking, which the symmetric
// XOR stream gives us for free.
type Whitener struct {
	reg uint8 // 7-bit state
}

// NewWhitener seeds the LFSR from the clock.
func NewWhitener(clk uint32) *Whitener {
	seed := uint8(clk>>1)&0x3F | 0x40
	return &Whitener{reg: seed}
}

// NextBit returns the next whitening bit.
func (w *Whitener) NextBit() uint8 {
	out := (w.reg >> 6) & 1
	fb := out ^ ((w.reg >> 3) & 1) // taps at D^7 and D^4
	w.reg = (w.reg<<1 | fb) & 0x7F
	return out
}

// whitenWord[s] holds the next 64 whitening bits (first in bit 0)
// produced from state s, and whitenNext[s] the state after emitting
// them. The LFSR has period 127, so 128 states cover every seed. Both
// tables are derived from NextBit, so the table walk is the bitwise LFSR.
var whitenWord, whitenNext = func() (word [128]uint64, next [128]uint8) {
	for s := 0; s < 128; s++ {
		w := Whitener{reg: uint8(s)}
		for j := 0; j < 64; j++ {
			word[s] |= uint64(w.NextBit()) << j
		}
		next[s] = w.reg
	}
	return
}()

// rev7 reverses the low seven bits of x. The register holds the next
// seven stream bits with the first in bit 6, so rev7 converts between
// a state and those bits in air order.
func rev7(x uint8) uint8 { return mbits.Reverse8(x) >> 1 }

// Next returns the next n <= 64 whitening bits, first in bit 0, and
// advances the LFSR past them.
func (w *Whitener) Next(n int) uint64 {
	word := whitenWord[w.reg]
	if n >= 64 {
		w.reg = whitenNext[w.reg]
		return word
	}
	// The state after n steps is stream bits n..n+6; bits 64..70 are
	// the state after 64 steps.
	ahead := word>>n | uint64(rev7(whitenNext[w.reg]))<<(64-n)
	w.reg = rev7(uint8(ahead) & 0x7F)
	return word & (1<<n - 1)
}

// Apply XORs the whitening stream over v in place starting at the
// current LFSR position.
func (w *Whitener) Apply(v *bits.Vec) { w.ApplyRange(v, 0, v.Len()) }

// ApplyRange XORs the whitening stream over bits [from, to) of v in
// place, 64 bits per table step.
func (w *Whitener) ApplyRange(v *bits.Vec, from, to int) {
	for ; from < to; from += 64 {
		n := min(64, to-from)
		v.XorUint(from, w.Next(n), n)
	}
}
