package access

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSyncWordDeterministicAndDistinct(t *testing.T) {
	a := SyncWord(0x123456)
	if a != SyncWord(0x123456) {
		t.Fatal("sync word not deterministic")
	}
	if a == SyncWord(0x123457) {
		t.Fatal("adjacent LAPs share a sync word")
	}
	if SyncWord(GIAC) == SyncWord(0x000000) {
		t.Fatal("GIAC collides with zero LAP")
	}
}

func TestSyncWordMinimumDistance(t *testing.T) {
	// BCH(64,30) has minimum distance 14 before PN whitening; whitening
	// is a fixed XOR so pairwise distances are preserved. Check a sample
	// of LAP pairs keeps distance comfortably above the correlator
	// threshold (so distinct devices never alias).
	r := sim.NewRand(11)
	for trial := 0; trial < 200; trial++ {
		l1 := uint32(r.Uint64()) & 0xFFFFFF
		l2 := uint32(r.Uint64()) & 0xFFFFFF
		if l1 == l2 {
			continue
		}
		diff := SyncWord(l1) ^ SyncWord(l2)
		n := 0
		for diff != 0 {
			diff &= diff - 1
			n++
		}
		if n < 14 {
			t.Fatalf("LAPs %06x/%06x sync distance %d < 14", l1, l2, n)
		}
	}
}

func TestBCHParityLinear(t *testing.T) {
	// Parity of XOR = XOR of parities (code linearity).
	f := func(a, b uint32) bool {
		x, y := uint64(a)&0x3FFFFFFF, uint64(b)&0x3FFFFFFF
		return bchParity(x^y) == bchParity(x)^bchParity(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The table-driven parity is the bitwise division, for every table
// entry and random information words.
func TestBCHParityMatchesDivision(t *testing.T) {
	for k := range bchTab {
		for b, got := range bchTab[k] {
			if want := bchDivide(uint64(b) << (8 * k)); got != want {
				t.Fatalf("byte %d = %#x: table parity %#x, division %#x", k, b, got, want)
			}
		}
	}
	f := func(x uint32) bool { return bchParity(uint64(x)) == bchDivide(uint64(x)&(1<<30-1)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodeLengths(t *testing.T) {
	if Code(GIAC, false).Len() != 68 {
		t.Fatal("ID-form access code must be 68 bits")
	}
	if Code(GIAC, true).Len() != 72 {
		t.Fatal("header-form access code must be 72 bits")
	}
}

func TestPreambleAlternation(t *testing.T) {
	f := func(lapRaw uint32) bool {
		lap := lapRaw & 0xFFFFFF
		c := Code(lap, true)
		// Preamble must alternate: bits 0..3 strictly alternate and bit 3
		// differs from sync bit 0 continuing the alternation.
		for i := 1; i < 4; i++ {
			if c.Bit(i) == c.Bit(i-1) {
				return false
			}
		}
		if c.Bit(3) == c.Bit(4) {
			return false
		}
		// Trailer alternates out of the last sync bit.
		if c.Bit(67) == c.Bit(68) {
			return false
		}
		for i := 69; i < 72; i++ {
			if c.Bit(i) == c.Bit(i-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelateClean(t *testing.T) {
	c := Code(0xABCDEF, false)
	errs, ok := Correlate(c, 0xABCDEF, DefaultCorrelatorThreshold)
	if !ok || errs != 0 {
		t.Fatalf("clean correlate failed (errs=%d)", errs)
	}
}

func TestCorrelateRejectsWrongLAP(t *testing.T) {
	c := Code(0xABCDEF, false)
	if _, ok := Correlate(c, 0x123456, DefaultCorrelatorThreshold); ok {
		t.Fatal("correlator accepted wrong LAP")
	}
}

func TestCorrelateToleratesErrorsUpToThreshold(t *testing.T) {
	r := sim.NewRand(3)
	base := Code(GIAC, false)
	for trial := 0; trial < 50; trial++ {
		c := base.Clone()
		// Flip exactly threshold distinct sync-word bits.
		flipped := map[int]bool{}
		for len(flipped) < DefaultCorrelatorThreshold {
			i := 4 + r.Intn(64)
			if !flipped[i] {
				flipped[i] = true
				c.FlipBit(i)
			}
		}
		errs, ok := Correlate(c, GIAC, DefaultCorrelatorThreshold)
		if !ok || errs != DefaultCorrelatorThreshold {
			t.Fatalf("threshold errors rejected (errs=%d ok=%v)", errs, ok)
		}
		// One more flip must push it over.
		for {
			i := 4 + r.Intn(64)
			if !flipped[i] {
				c.FlipBit(i)
				break
			}
		}
		if _, ok := Correlate(c, GIAC, DefaultCorrelatorThreshold); ok {
			t.Fatal("threshold+1 errors accepted")
		}
	}
}

func TestCorrelatePreambleErrorsIgnored(t *testing.T) {
	c := Code(GIAC, false)
	c.FlipBit(0)
	c.FlipBit(1)
	if errs, ok := Correlate(c, GIAC, 0); !ok || errs != 0 {
		t.Fatal("preamble errors must not count against the correlator")
	}
}

func TestCorrelateShortInput(t *testing.T) {
	c := Code(GIAC, false).Slice(0, 50)
	if _, ok := Correlate(c, GIAC, 64); ok {
		t.Fatal("short input accepted")
	}
}
