package packet

import (
	"testing"

	"repro/internal/bits"
)

// benchPackets are the packet types the assembly and parse benchmarks
// price, each at its maximum payload.
func benchPackets() []*Packet {
	fhs := &Packet{AccessLAP: testLAP, Header: &Header{AMAddr: 1, Type: TypeFHS},
		FHS: &FHSPayload{LAP: 0x9E8B33, UAP: 0x5A, NAP: 0x1234, Class: 0x20041C, AMAddr: 1, CLK: 0x2A5F3C4}}
	return []*Packet{
		NewID(testLAP),
		fhs,
		mkData(TypeDM1, TypeDM1.MaxPayload(), 1),
		mkData(TypeDH5, TypeDH5.MaxPayload(), 2),
		mkVoice(TypeHV3, 3),
	}
}

func BenchmarkAssemble(b *testing.B) {
	for _, p := range benchPackets() {
		b.Run(p.Type().String(), func(b *testing.B) {
			var sink *bits.Vec
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = p.Assemble(testUAP, testCLK)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.AirBits()), "ns/bit")
			_ = sink
		})
	}
}

func BenchmarkParse(b *testing.B) {
	for _, p := range benchPackets() {
		b.Run(p.Type().String(), func(b *testing.B) {
			rx := p.Assemble(testUAP, testCLK)
			var sink *Packet
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if sink, _, err = Parse(rx, testLAP, testUAP, testCLK, 7); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rx.Len()), "ns/bit")
			_ = sink
		})
	}
}
