package hop

import (
	"testing"
	"unsafe"
)

// perm5Butterfly is the 14-stage butterfly of spec Figure 2.21 run
// stage by stage on the packed 14-bit control word: the reference the
// tables are held to.
func perm5Butterfly(z, ctl uint32) uint32 {
	for i := 13; i >= 0; i-- {
		if ctl>>uint(i)&1 == 1 {
			a, b := perm5Index1[13-i], perm5Index2[13-i]
			if (z>>uint(a))&1 != (z>>uint(b))&1 {
				z ^= 1<<uint(a) | 1<<uint(b)
			}
		}
	}
	return z & 0x1F
}

// TestPerm5TableMatchesButterfly holds the precomputed permutation tables
// to the 14-stage butterfly they replaced, across the full input space.
func TestPerm5TableMatchesButterfly(t *testing.T) {
	for ctl := uint32(0); ctl < 1<<14; ctl++ {
		for z := uint32(0); z < 32; z++ {
			got := perm5(z, ctl>>9, ctl&0x1FF)
			if want := perm5Butterfly(z, ctl); got != want {
				t.Fatalf("perm5(z=%d, ctl=%#x) = %d, butterfly = %d", z, ctl, got, want)
			}
		}
	}
}

// TestPerm5TablesFootprint keeps the PERM5 tables small enough to stay
// in L1 beside the rest of the hot path and cheap to build at init.
func TestPerm5TablesFootprint(t *testing.T) {
	if n := unsafe.Sizeof(perm5Hi) + unsafe.Sizeof(perm5Lo); n > 32<<10 {
		t.Fatalf("PERM5 tables take %d bytes, want at most 32 KiB", n)
	}
}

// BenchmarkBuildPerm5Tab prices the package's init-time table build.
func BenchmarkBuildPerm5Tab(b *testing.B) {
	var hi [32][32]uint8
	var lo [512][32]uint8
	b.ReportAllocs()
	for b.Loop() {
		buildPerm5Tabs(&hi, &lo)
	}
}

// BenchmarkSelectorBasic is the hop rung of the per-layer ladder: the
// connection-state sequence over a sweep of master transmit slots, one
// Basic call per op. It must not allocate.
func BenchmarkSelectorBasic(b *testing.B) {
	s := NewSelector(Addr28(0x9E8B33, 0x5A))
	b.ReportAllocs()
	clk := uint32(0)
	for b.Loop() {
		s.Basic(clk)
		clk += 4
	}
}
