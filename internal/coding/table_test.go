package coding

import (
	mbits "math/bits"
	"math/rand"
	"testing"

	"repro/internal/bits"
)

// randVec returns n random bits from r.
func rndVec(r *rand.Rand, n int) *bits.Vec {
	v := bits.NewVec(n)
	for i := 0; i < n; i++ {
		v.AppendBit(uint8(r.Intn(2)))
	}
	return v
}

// applyBitwise is the original whitening loop the table walk replaced;
// the tests below hold the optimised path to it bit for bit.
func applyBitwise(w *Whitener, v *bits.Vec) {
	for i := 0; i < v.Len(); i++ {
		if w.NextBit() == 1 {
			v.FlipBit(i)
		}
	}
}

func TestWhitenerApplyMatchesBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 18, 54, 126, 240, 2745} {
		for trial := 0; trial < 8; trial++ {
			clk := r.Uint32()
			a := rndVec(r, n)
			b := a.Clone()
			wa, wb := NewWhitener(clk), NewWhitener(clk)
			wa.Apply(a)
			applyBitwise(wb, b)
			if !a.Equal(b) {
				t.Fatalf("n=%d clk=%#x: table whitening diverges from bitwise", n, clk)
			}
			if wa.reg != wb.reg {
				t.Fatalf("n=%d clk=%#x: LFSR state %#x != %#x after Apply", n, clk, wa.reg, wb.reg)
			}
		}
	}
}

// crc16Bitwise is the original CRC loop.
func crc16Bitwise(payload *bits.Vec, uap uint8) uint16 {
	reg := uint16(uap) << 8
	for i := 0; i < payload.Len(); i++ {
		msb := uint8(reg >> 15)
		reg <<= 1
		if msb^payload.Bit(i) == 1 {
			reg ^= crcGen
		}
	}
	return reg
}

func TestCRC16TableMatchesBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, 8, 9, 16, 31, 160, 339, 2712} {
		for trial := 0; trial < 8; trial++ {
			uap := uint8(r.Uint32())
			v := rndVec(r, n)
			if got, want := CRC16(v, uap), crc16Bitwise(v, uap); got != want {
				t.Fatalf("n=%d uap=%#x: CRC16 = %#x, bitwise = %#x", n, uap, got, want)
			}
		}
	}
}

func TestCRC16RangeMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	v := rndVec(r, 300)
	for trial := 0; trial < 32; trial++ {
		from := r.Intn(200)
		to := from + r.Intn(v.Len()-from)
		uap := uint8(r.Uint32())
		if got, want := CRC16Range(v, from, to, uap), CRC16(v.Slice(from, to), uap); got != want {
			t.Fatalf("[%d,%d): CRC16Range = %#x, sliced = %#x", from, to, got, want)
		}
	}
}

func TestHECRangeMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	v := rndVec(r, 64)
	for trial := 0; trial < 32; trial++ {
		from := r.Intn(40)
		to := from + r.Intn(v.Len()-from)
		uap := uint8(r.Uint32())
		if got, want := HECRange(v, from, to, uap), HEC(v.Slice(from, to), uap); got != want {
			t.Fatalf("[%d,%d): HECRange = %#x, sliced = %#x", from, to, got, want)
		}
	}
}

func TestAppendFEC13MatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 18, 80} {
		in := rndVec(r, n)
		prefix := rndVec(r, 5)
		out := prefix.Clone()
		AppendFEC13(out, in)
		want := prefix.Clone()
		want.AppendVec(EncodeFEC13(in))
		if !out.Equal(want) {
			t.Fatalf("n=%d: AppendFEC13 diverges from EncodeFEC13", n)
		}
	}
}

// appended returns a copy of a followed by b.
func appended(a, b *bits.Vec) *bits.Vec {
	out := a.Clone()
	out.AppendVec(b)
	return out
}

func TestDecodeFEC13RangeMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	v := rndVec(r, 240)
	for trial := 0; trial < 32; trial++ {
		from := r.Intn(60)
		to := from + 3*r.Intn((v.Len()-from)/3)
		prefix := rndVec(r, trial)
		gotV := prefix.Clone()
		gotC, gotOK := AppendDecodeFEC13(gotV, v, from, to)
		wantV, wantC, wantOK := DecodeFEC13(v.Slice(from, to))
		if gotOK != wantOK || gotC != wantC || (gotOK && !gotV.Equal(appended(prefix, wantV))) {
			t.Fatalf("[%d,%d): AppendDecodeFEC13 diverges from sliced decode", from, to)
		}
	}
	if _, ok := AppendDecodeFEC13(bits.NewVec(0), v, 0, 7); ok {
		t.Fatal("non-multiple-of-3 range must fail")
	}
}

func TestReflectedGenerators(t *testing.T) {
	if mbits.Reverse8(hecGen) != hecGenRev || mbits.Reverse16(crcGen) != crcGenRev {
		t.Fatal("reflected generator constants do not reverse the generators")
	}
}

func TestHECUintMatchesVec(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 256; trial++ {
		n := r.Intn(65)
		v := rndVec(r, n)
		uap := uint8(r.Uint32())
		if got, want := HECUint(v.Uint(0, n), n, uap), HEC(v, uap); got != want {
			t.Fatalf("n=%d: HECUint = %#x, HEC = %#x", n, got, want)
		}
	}
}

// Next must hand out the bitwise stream for every width and leave the
// LFSR where the bitwise walk leaves it.
func TestWhitenerNextMatchesBitwise(t *testing.T) {
	for s := 0; s < 128; s++ {
		for n := 0; n <= 64; n++ {
			w, ref := Whitener{reg: uint8(s)}, Whitener{reg: uint8(s)}
			var want uint64
			for j := 0; j < n; j++ {
				want |= uint64(ref.NextBit()) << j
			}
			if got := w.Next(n); got != want || w.reg != ref.reg {
				t.Fatalf("state %#x n=%d: Next = %#x state %#x, bitwise %#x state %#x",
					s, n, got, w.reg, want, ref.reg)
			}
		}
	}
}

func TestWhitenerApplyRangeMatchesBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 64; trial++ {
		v := rndVec(r, 300)
		from := r.Intn(200)
		to := from + r.Intn(v.Len()-from)
		clk := r.Uint32()
		got, want := v.Clone(), v.Slice(from, to)
		NewWhitener(clk).ApplyRange(got, from, to)
		applyBitwise(NewWhitener(clk), want)
		if !got.Slice(from, to).Equal(want) || !got.Slice(0, from).Equal(v.Slice(0, from)) ||
			!got.Slice(to, v.Len()).Equal(v.Slice(to, v.Len())) {
			t.Fatalf("[%d,%d): ApplyRange diverges from bitwise whitening of the range", from, to)
		}
	}
}

func TestFEC13UintMatchesVec(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 256; trial++ {
		n := r.Intn(22)
		in := rndVec(r, n)
		enc := EncodeFEC13(in)
		if got := EncodeFEC13Uint(in.Uint(0, n), n); got != enc.Uint(0, 3*n) {
			t.Fatalf("n=%d: EncodeFEC13Uint = %#x, EncodeFEC13 = %#x", n, got, enc.Uint(0, 3*n))
		}
		for k := 0; k < 3; k++ {
			if n > 0 {
				enc.FlipBit(r.Intn(3 * n))
			}
		}
		want, wantC, _ := DecodeFEC13(enc)
		got, gotC := DecodeFEC13Uint(enc.Uint(0, 3*n), n)
		if got != want.Uint(0, n) || gotC != wantC {
			t.Fatalf("n=%d: DecodeFEC13Uint = %#x/%d, DecodeFEC13 = %#x/%d", n, got, gotC, want.Uint(0, n), wantC)
		}
	}
}

// fec13DecodeBitwise is the per-triple majority vote the bit-sliced
// decoder replaced.
func fec13DecodeBitwise(in *bits.Vec) (*bits.Vec, int) {
	out, corrected := bits.NewVec(in.Len()/3), 0
	for j := 0; j+3 <= in.Len(); j += 3 {
		sum := in.Bit(j) + in.Bit(j+1) + in.Bit(j+2)
		out.AppendBit(sum / 2)
		if sum == 1 || sum == 2 {
			corrected++
		}
	}
	return out, corrected
}

func TestDecodeFEC13MatchesBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 3, 60, 63, 66, 126, 189, 8232} {
		v := rndVec(r, n)
		got, gotC, ok := DecodeFEC13(v)
		want, wantC := fec13DecodeBitwise(v)
		if !ok || !got.Equal(want) || gotC != wantC {
			t.Fatalf("n=%d: bit-sliced decode diverges from the per-triple vote", n)
		}
	}
}

func TestFEC23RangeMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := rndVec(r, 200)
	enc := EncodeFEC23(in)
	for trial := 0; trial < 64; trial++ {
		v := enc.Clone()
		for k := r.Intn(4); k > 0; k-- {
			v.FlipBit(r.Intn(v.Len()))
		}
		from := 15 * r.Intn(8)
		to := from + 15*r.Intn((v.Len()-from)/15+1)
		prefix := rndVec(r, trial)
		gotV := prefix.Clone()
		gotC, gotOK := AppendDecodeFEC23(gotV, v, from, to)
		wantV, wantC, wantOK := DecodeFEC23(v.Slice(from, to))
		if gotOK != wantOK || gotC != wantC || (gotOK && !gotV.Equal(appended(prefix, wantV))) {
			t.Fatalf("[%d,%d): AppendDecodeFEC23 diverges from sliced decode", from, to)
		}
	}
	prefix := rndVec(r, 7)
	out := prefix.Clone()
	AppendFEC23(out, in)
	want := prefix.Clone()
	want.AppendVec(enc)
	if !out.Equal(want) {
		t.Fatal("AppendFEC23 diverges from EncodeFEC23")
	}
}

// TestFEC23ParityTableMatchesDivision holds the table, built from its
// single-bit words, to the long division for every 10-bit data word.
func TestFEC23ParityTableMatchesDivision(t *testing.T) {
	for d := range fec23ParityTab {
		if got, want := fec23ParityTab[d], fec23Parity(uint16(d)); got != want {
			t.Fatalf("data %#x: table parity %#x, division %#x", d, got, want)
		}
	}
}
