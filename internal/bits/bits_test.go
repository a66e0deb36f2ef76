package bits

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"testing/quick"
)

func TestAppendUintLSBFirst(t *testing.T) {
	v := NewVec(8)
	v.AppendUint(0b1101, 4)
	want := []uint8{1, 0, 1, 1} // LSB first
	for i, w := range want {
		if v.Bit(i) != w {
			t.Fatalf("bit %d = %d, want %d (vec %v)", i, v.Bit(i), w, v)
		}
	}
}

func TestUintRoundTrip(t *testing.T) {
	f := func(x uint64, shift uint8) bool {
		n := int(shift%64) + 1
		v := NewVec(n)
		v.AppendUint(x, n)
		mask := ^uint64(0)
		if n < 64 {
			mask = (1 << n) - 1
		}
		return v.Uint(0, n) == x&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		v := NewVec(len(data) * 8)
		v.AppendBytes(data)
		got := v.Bytes()
		if len(got) != len(data) {
			return len(data) == 0 && len(got) == 0
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceIsIndependent(t *testing.T) {
	v := FromBools(true, false, true, true)
	s := v.Slice(1, 3)
	s.FlipBit(0)
	if v.Bit(1) != 0 {
		t.Fatal("Slice shares storage with parent")
	}
	if s.Len() != 2 {
		t.Fatal("Slice length wrong")
	}
}

func TestEqualClone(t *testing.T) {
	a := FromBools(true, false, true)
	b := FromBools(true, true, true)
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not equal")
	}
	if a.Equal(b) {
		t.Fatal("different vecs reported equal")
	}
}

func TestFlipAndXor(t *testing.T) {
	v := FromBools(false, false, false, false)
	v.FlipBit(2)
	if v.Uint(0, 4) != 0b0100 {
		t.Fatalf("flip wrong: %v", v)
	}
	v.XorUint(1, 0b11, 2)
	if v.Bit(1) != 1 || v.Bit(2) != 0 {
		t.Fatalf("xor wrong: %v", v)
	}
}

func TestOnesAndString(t *testing.T) {
	v := FromBools(true, false, true, true, true)
	if v.Ones() != 4 {
		t.Fatalf("Ones = %d", v.Ones())
	}
	if v.String() != "1011 1" {
		t.Fatalf("String = %q", v.String())
	}
}

func TestUintPanicsOver64(t *testing.T) {
	v := NewVec(80)
	v.AppendUint(0, 65)
	defer func() {
		if recover() == nil {
			t.Error("Uint(>64) did not panic")
		}
	}()
	v.Uint(0, 65)
}

// Property: flipping a bit twice restores the vector.
func TestDoubleFlipIdentity(t *testing.T) {
	f := func(data []byte, idx uint16) bool {
		if len(data) == 0 {
			return true
		}
		v := NewVec(len(data) * 8)
		v.AppendBytes(data)
		i := int(idx) % v.Len()
		orig := v.Clone()
		v.FlipBit(i)
		if v.Equal(orig) {
			return false
		}
		v.FlipBit(i)
		return v.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The per-bit and per-word accessors sit in the codec and channel inner
// loops; each must stay within the compiler's inlining budget. Uint is
// close to it, so a small edit can push it over.
func TestHotAccessorsInline(t *testing.T) {
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		t.Skipf("no go toolchain at %s", gobin)
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m", "-o", os.DevNull, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{"Bit", "FlipBit", "Uint", "XorUint"} {
		if !regexp.MustCompile(`(?m)can inline \(\*Vec\)\.` + fn + `$`).Match(out) {
			t.Errorf("(*Vec).%s is no longer inlinable", fn)
		}
	}
}

// vecSink keeps the vectors of the allocation tests on the heap, as
// the air path's are.
var vecSink *Vec

// TestAppendBytesAllocs pins AppendBytes to the capacity it needs: a
// vector NewVec sized for a payload takes its bytes without growing,
// so the two allocations are NewVec's own.
func TestAppendBytesAllocs(t *testing.T) {
	for _, n := range []int{17, 27, 224, 339} { // DM1, DH1, DM5, DH5 payloads
		b := make([]byte, n)
		if got := testing.AllocsPerRun(100, func() {
			vecSink = NewVec(8 * len(b))
			vecSink.AppendBytes(b)
		}); got != 2 {
			t.Errorf("%d bytes: %v allocations, want 2", n, got)
		}
	}
}

// TestResetReusesWords pins the reuse path: refilling a reset vector
// within its capacity allocates nothing, Grow sizes a vector in one
// step, and a zero Vec is ready after Reset.
func TestResetReusesWords(t *testing.T) {
	b := make([]byte, 339)
	v := NewVec(8 * len(b))
	if got := testing.AllocsPerRun(100, func() {
		v.Reset()
		v.AppendBytes(b)
	}); got != 0 {
		t.Errorf("refill allocated %v times, want 0", got)
	}
	// Grow reserves a packet's words in one step: the appends that
	// follow stay in them.
	g := NewVec(0)
	g.Grow(2870) // a DH5 on air
	first := &g.w[0]
	for g.Len()+64 <= 2870 {
		g.AppendUint(^uint64(0), 64)
	}
	g.AppendUint(0, 2870-g.Len())
	if &g.w[0] != first {
		t.Error("appends after Grow(2870) reallocated")
	}
	var z Vec
	z.Reset()
	z.AppendUint(5, 3)
	if z.Len() != 3 || z.Uint(0, 3) != 5 {
		t.Errorf("zero Vec after Reset: Len %d, bits %b", z.Len(), z.Uint(0, z.Len()))
	}
}
