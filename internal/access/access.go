// Package access builds and correlates Bluetooth access codes: the 72-bit
// (or standalone 68-bit) preamble + sync word that opens every packet and
// that ID packets consist of entirely. The 64-bit sync word is derived
// from a 24-bit LAP with the BCH(64,30) construction of Bluetooth 1.2
// part B §6.3.3, and reception is modelled as the sliding correlator of a
// real baseband: a packet is caught iff the received sync word is within
// the correlator's error threshold of the expected one.
package access

import (
	mbits "math/bits"

	"repro/internal/bits"
)

// GIAC is the general inquiry access code LAP shared by all devices.
const GIAC uint32 = 0x9E8B33

// bchGen is the BCH(64,30) generator polynomial, octal 260534236651
// (degree 34), per the spec's sync-word construction.
const bchGen uint64 = 0o260534236651

// pnSequence is the 64-bit pseudo-random sequence XORed over the
// information and the codeword (spec part B §6.3.3.1), given here with
// bit 0 = first transmitted bit.
const pnSequence uint64 = 0x83848D96BBCC54FC

// SyncWord derives the 64-bit sync word for a LAP. Layout, LSB (first on
// air) to MSB: 6 Barker bits, 24 LAP bits, 34 BCH parity bits — with the
// PN whitening applied as in the standard.
func SyncWord(lap uint32) uint64 {
	lap &= 0xFFFFFF
	// Barker extension chosen by the MSB of the LAP to balance DC.
	var barker uint64 = 0b001101
	if lap&0x800000 != 0 {
		barker = 0b110010
	}
	info := barker | uint64(lap)<<6 // 30 bits
	info ^= pnSequence & 0x3FFFFFFF
	parity := bchParity(info)
	word := info | parity<<30
	word ^= pnSequence &^ 0x3FFFFFFF // re-whiten only the parity half
	return word
}

// bchDivide divides info(D)·D^34 by the generator and returns the 34
// parity bits, one information bit per step.
func bchDivide(info uint64) uint64 {
	reg := info << 34
	for i := 63; i >= 34; i-- {
		if reg&(1<<i) != 0 {
			reg ^= bchGen << (i - 34)
		}
	}
	return reg & ((1 << 34) - 1)
}

// bchTab[k][b] is the parity of byte b at information bits 8k..8k+7.
// The remainder is linear in the information, so the parity of a
// 30-bit word is the XOR of its four bytes' entries, and each entry is
// built the same way from its lowest bit's and the rest's: only the
// single-bit entries take a division.
var bchTab = func() (tab [4][256]uint64) {
	for k := range tab {
		for b := 1; b < len(tab[k]); b++ {
			if low := b & -b; low != b {
				tab[k][b] = tab[k][b&^low] ^ tab[k][low]
			} else {
				tab[k][b] = bchDivide(uint64(b) << (8 * k))
			}
		}
	}
	return
}()

// bchParity returns the 34 BCH parity bits of the 30 information bits
// of info, four table lookups.
func bchParity(info uint64) uint64 {
	return bchTab[0][uint8(info)] ^ bchTab[1][uint8(info>>8)] ^
		bchTab[2][uint8(info>>16)] ^ bchTab[3][uint8(info>>24)&0x3F]
}

// preambleFor returns the 4-bit preamble: 0101 or 1010 chosen so it
// alternates into the sync word's first bit.
func preambleFor(sync uint64) uint64 {
	if sync&1 == 1 {
		return 0b0101 // ends in 1·? first air bit 1... LSB-first: 1,0,1,0
	}
	return 0b1010
}

// trailerFor returns the 4-bit trailer extending the alternation out of
// the sync word's last bit.
func trailerFor(sync uint64) uint64 {
	if sync>>63 == 1 {
		return 0b1010
	}
	return 0b0101
}

// Code returns the access code bits for a LAP. withTrailer selects the
// 72-bit form used when a header follows; ID packets use the 68-bit form.
func Code(lap uint32, withTrailer bool) *bits.Vec {
	n := 68
	if withTrailer {
		n = 72
	}
	v := bits.NewVec(n)
	AppendCode(v, lap, withTrailer)
	return v
}

// AppendCode appends the access code bits directly to v, sparing the
// assembly path a temporary vector: preamble, sync word and trailer go
// in as three word-wide appends.
func AppendCode(v *bits.Vec, lap uint32, withTrailer bool) {
	sync := SyncWord(lap)
	v.AppendUint(preambleFor(sync), 4)
	v.AppendUint(sync, 64)
	if withTrailer {
		v.AppendUint(trailerFor(sync), 4)
	}
}

// DefaultCorrelatorThreshold is the maximum number of sync-word bit
// errors the sliding correlator accepts. 7 of 64 corresponds to the
// customary 57-of-64 correlation threshold of baseband receivers.
const DefaultCorrelatorThreshold = 7

// Correlate reports whether received access-code bits match the expected
// LAP within threshold sync-word bit errors. Only the 64 sync bits are
// correlated; preamble/trailer exist for DC balance and carry no
// information. ok is false if rx is too short to contain a sync word.
func Correlate(rx *bits.Vec, lap uint32, threshold int) (errors int, ok bool) {
	if rx.Len() < 68 {
		return 0, false
	}
	n := mbits.OnesCount64(SyncWord(lap) ^ rx.Uint(4, 64))
	return n, n <= threshold
}
