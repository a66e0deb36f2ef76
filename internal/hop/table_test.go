package hop

import "testing"

// TestPerm5TableMatchesButterfly holds the precomputed permutation table
// to the 14-stage butterfly it replaced, across the full input space.
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

// BenchmarkBuildPerm5Tab prices the package's init-time table build.
func BenchmarkBuildPerm5Tab(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		buildPerm5Tab()
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
