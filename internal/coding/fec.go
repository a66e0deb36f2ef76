// Package coding implements the Bluetooth baseband channel codes used by
// the packet layer: the rate-1/3 repetition FEC that protects packet
// headers, the rate-2/3 shortened (15,10) Hamming FEC used by DM packets
// and the FHS payload, the 8-bit header-error-check (HEC), the CRC-16 on
// payloads, and the data-whitening LFSR. All operate on bits.Vec in
// on-air order, matching the Bluetooth 1.2 baseband specification the
// paper models, and all work on the vector's packed words: up to 64 air
// bits per read, table step or append rather than one bit at a time.
package coding

import (
	mbits "math/bits"

	"repro/internal/bits"
)

// EncodeFEC13 triples every input bit (rate-1/3 repetition code).
func EncodeFEC13(in *bits.Vec) *bits.Vec {
	out := bits.NewVec(in.Len() * 3)
	AppendFEC13(out, in)
	return out
}

// fec13Spread[b] is the rate-1/3 code of the eight bits of b: bit i of
// b fills bits 3i..3i+2.
var fec13Spread = func() (tab [256]uint32) {
	for b := range tab {
		for i := 0; i < 8; i++ {
			tab[b] |= uint32(b>>i&1) * 0b111 << (3 * i)
		}
	}
	return
}()

// EncodeFEC13Uint returns the rate-1/3 code of the low n <= 21 bits of
// x, three spread-table lookups: the packet header is encoded as an
// integer this way.
func EncodeFEC13Uint(x uint64, n int) uint64 {
	x &= 1<<n - 1
	return uint64(fec13Spread[uint8(x)]) | uint64(fec13Spread[uint8(x>>8)])<<24 |
		uint64(fec13Spread[uint8(x>>16)])<<48
}

// AppendFEC13 appends the rate-1/3 encoding of in directly to out,
// saving the intermediate vector on the packet assembly path.
func AppendFEC13(out, in *bits.Vec) {
	for i := 0; i < in.Len(); i += 21 {
		n := min(21, in.Len()-i)
		out.AppendUint(EncodeFEC13Uint(in.Uint(i, n), n), 3*n)
	}
}

// tripleLow marks bit 3i of each of the 21 triples a word holds.
const tripleLow = 0x1249249249249249

// DecodeFEC13Uint majority-decodes the n <= 21 triples in the low 3n
// bits of x, all triples at once: the vote of triple i lands in bit 3i
// and the triples are then compacted to bits 0..n-1. It also counts the
// triples that were not unanimous.
func DecodeFEC13Uint(x uint64, n int) (out uint64, corrected int) {
	x &= 1<<(3*n) - 1
	b, c := x>>1, x>>2
	maj := (x&b | x&c | b&c) & tripleLow
	split := ((x ^ b) | (x ^ c)) & tripleLow
	// Gather bits 3i to bit i (the Morton-code compaction).
	maj = (maj ^ maj>>2) & 0x10C30C30C30C30C3
	maj = (maj ^ maj>>4) & 0x100F00F00F00F00F
	maj = (maj ^ maj>>8) & 0x001F0000FF0000FF
	maj = (maj ^ maj>>16) & 0x001F00000000FFFF
	maj = (maj ^ maj>>32) & 0x1FFFFF
	return maj, mbits.OnesCount64(split)
}

// DecodeFEC13 majority-votes each bit triple. The input length must be a
// multiple of 3; corrupted lengths are the caller's error to handle.
// It also reports how many triples needed correction, a useful channel
// quality measure.
func DecodeFEC13(in *bits.Vec) (out *bits.Vec, corrected int, ok bool) {
	out = bits.NewVec(in.Len() / 3)
	if corrected, ok = AppendDecodeFEC13(out, in, 0, in.Len()); !ok {
		return nil, 0, false
	}
	return out, corrected, true
}

// AppendDecodeFEC13 decodes bits [from, to) of in, 21 triples per step,
// and appends the result to out: the receive path decodes into a vector
// it reuses, without copying the coded bits out first. ok is false,
// with nothing appended, if the range is not a whole number of triples.
func AppendDecodeFEC13(out, in *bits.Vec, from, to int) (corrected int, ok bool) {
	if (to-from)%3 != 0 {
		return 0, false
	}
	for ; from < to; from += 63 {
		n := min(63, to-from) / 3
		d, c := DecodeFEC13Uint(in.Uint(from, 3*n), n)
		out.AppendUint(d, n)
		corrected += c
	}
	return corrected, true
}

// fec23Gen is the generator polynomial of the (15,10) shortened Hamming
// code, g(D) = (D+1)(D^4+D+1) = D^5 + D^4 + D^2 + 1, per Bluetooth 1.2
// part B §7.5. Bit i of the constant is the coefficient of D^i.
const fec23Gen = 0b110101

// fec23ParityLen is the number of parity bits per block.
const fec23ParityLen = 5

// fec23DataLen is the number of data bits per block.
const fec23DataLen = 10

// fec23Parity computes the 5 parity bits for a 10-bit data word (bit i =
// coefficient of D^i, LSB-first air order) by polynomial division of
// data(D)·D^5 by g(D).
func fec23Parity(data uint16) uint8 {
	// Work MSB-down over the 15-bit codeword register.
	reg := uint32(data) << fec23ParityLen
	for i := fec23DataLen + fec23ParityLen - 1; i >= fec23ParityLen; i-- {
		if reg&(1<<i) != 0 {
			reg ^= uint32(fec23Gen) << (i - fec23ParityLen)
		}
	}
	return uint8(reg & 0x1F)
}

// fec23ParityTab[d] is fec23Parity(d) for every 10-bit data word. The
// code is linear, so a word's parity is its lowest bit's XOR the rest's
// and only the ten single-bit words take a division.
var fec23ParityTab = func() (tab [1 << fec23DataLen]uint8) {
	for d := 1; d < len(tab); d++ {
		if low := d & -d; low != d {
			tab[d] = tab[d&^low] ^ tab[low]
		} else {
			tab[d] = fec23Parity(uint16(d))
		}
	}
	return
}()

// fec23Syndromes maps each 5-bit syndrome to the single codeword bit
// position that produces it (-1 for none), enabling single-error
// correction.
var fec23Syndromes = func() (tab [32]int8) {
	for i := range tab {
		tab[i] = -1
	}
	for pos := 0; pos < fec23DataLen+fec23ParityLen; pos++ {
		var data uint16
		var parity uint8
		if pos < fec23ParityLen {
			parity = 1 << pos
		} else {
			data = 1 << (pos - fec23ParityLen)
		}
		tab[fec23Parity(data)^parity] = int8(pos)
	}
	return
}()

// fec23BlockLen is the codeword length: data bits then parity bits.
const fec23BlockLen = fec23DataLen + fec23ParityLen

// EncodeFEC23 encodes the input with the (15,10) shortened Hamming code.
// The input is zero-padded to a multiple of 10 bits; the caller records
// the true payload length (the packet layer always knows it from the
// payload header, exactly as the standard prescribes).
func EncodeFEC23(in *bits.Vec) *bits.Vec {
	out := bits.NewVec((in.Len() + fec23DataLen - 1) / fec23DataLen * fec23BlockLen)
	AppendFEC23(out, in)
	return out
}

// AppendFEC23 appends the rate-2/3 encoding of in directly to out, four
// blocks (40 data bits in, 60 code bits out) per step.
func AppendFEC23(out, in *bits.Vec) {
	for i := 0; i < in.Len(); i += 4 * fec23DataLen {
		n := min(4*fec23DataLen, in.Len()-i)
		x := in.Uint(i, n)
		blocks := (n + fec23DataLen - 1) / fec23DataLen
		var cw uint64
		for b := 0; b < blocks; b++ {
			d := x >> (fec23DataLen * b) & (1<<fec23DataLen - 1)
			cw |= (d | uint64(fec23ParityTab[d])<<fec23DataLen) << (fec23BlockLen * b)
		}
		out.AppendUint(cw, fec23BlockLen*blocks)
	}
}

// DecodeFEC23 decodes 15-bit blocks, correcting single-bit errors per
// block. ok is false if the input length is not a multiple of 15 or any
// block has an uncorrectable (multi-bit) error pattern.
func DecodeFEC23(in *bits.Vec) (out *bits.Vec, corrected int, ok bool) {
	out = bits.NewVec(in.Len() / fec23BlockLen * fec23DataLen)
	if corrected, ok = AppendDecodeFEC23(out, in, 0, in.Len()); !ok {
		return nil, corrected, false
	}
	return out, corrected, true
}

// AppendDecodeFEC23 decodes bits [from, to) of in, four blocks per
// step, and appends the data bits to out. ok is false if the range is
// not a whole number of blocks (nothing appended) or a block is
// uncorrectable (out then holds a partial decode the caller discards).
func AppendDecodeFEC23(out, in *bits.Vec, from, to int) (corrected int, ok bool) {
	if (to-from)%fec23BlockLen != 0 {
		return 0, false
	}
	for ; from < to; from += 4 * fec23BlockLen {
		blocks := min(4*fec23BlockLen, to-from) / fec23BlockLen
		x := in.Uint(from, fec23BlockLen*blocks)
		var data uint64
		for b := 0; b < blocks; b++ {
			cw := x >> (fec23BlockLen * b)
			d := cw & (1<<fec23DataLen - 1)
			if syn := fec23ParityTab[d] ^ uint8(cw>>fec23DataLen)&(1<<fec23ParityLen-1); syn != 0 {
				pos := fec23Syndromes[syn]
				if pos < 0 {
					return corrected, false
				}
				corrected++
				if pos >= fec23ParityLen {
					d ^= 1 << (pos - fec23ParityLen)
				}
				// Errors in parity bits need no data correction.
			}
			data |= d << (fec23DataLen * b)
		}
		out.AppendUint(data, fec23DataLen*blocks)
	}
	return corrected, true
}
