package channel

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// The price of the spatial medium's linear receiver scan: every packet
// visits every registered receiver once. The dense benchmark puts
// every listener inside the delivery disc (all of them snapshot); the
// sparse benchmark spreads a much larger world out so the scan visits
// 1024 receivers and snapshots one.

// benchWorld tunes n listeners at the given positions on frequency 0
// and returns a kernel/channel pair ready to transmit.
func benchWorld(b *testing.B, cfg SpatialConfig, pos []Position) (*sim.Kernel, *Channel) {
	b.Helper()
	k := sim.NewKernel()
	c := New(k, sim.NewRand(1), Config{})
	c.EnableSpatial(cfg)
	c.Place("tx", Position{0, 0})
	for i, p := range pos {
		name := fmt.Sprintf("rx%04d", i)
		c.Place(name, p)
		c.Tune(&fakeRx{name: name}, 0)
	}
	return k, c
}

// BenchmarkSpatialDenseCell: 64 co-channel listeners inside the
// transmitter's delivery disc — every packet snapshots all of them.
func BenchmarkSpatialDenseCell(b *testing.B) {
	pos := make([]Position, 64)
	for i := range pos {
		pos[i] = Position{float64(i % 8), float64(i / 8)}
	}
	k, c := benchWorld(b, SpatialConfig{RangeM: 20}, pos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transmit("tx", 0, vec(50), nil)
		k.Run()
	}
}

// BenchmarkSpatialSparseWorld: 1024 listeners on a 100 m grid with a
// 12 m range — each packet pays the distance test for all 1024 and
// delivers to the one listener in range.
func BenchmarkSpatialSparseWorld(b *testing.B) {
	pos := make([]Position, 1024)
	for i := range pos {
		pos[i] = Position{float64(i%32) * 100, float64(i/32) * 100}
	}
	k, c := benchWorld(b, SpatialConfig{RangeM: 12, InterferenceM: 22}, pos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transmit("tx", 0, vec(50), nil)
		k.Run()
	}
}
