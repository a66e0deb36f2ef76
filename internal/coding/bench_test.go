package coding

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
)

// dh5Bits is the unwhitened DH5 payload length: 16-bit payload header,
// 339 data bytes and the CRC.
const dh5Bits = 16 + 339*8 + 16

// reportNsPerBit adds the cost per processed bit to a codec benchmark.
func reportNsPerBit(b *testing.B, nbits int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nbits), "ns/bit")
}

func BenchmarkWhiten(b *testing.B) {
	v := rndVec(rand.New(rand.NewSource(1)), dh5Bits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewWhitener(uint32(i)).Apply(v)
	}
	reportNsPerBit(b, dh5Bits)
}

func BenchmarkCRC16(b *testing.B) {
	v := rndVec(rand.New(rand.NewSource(2)), dh5Bits-16)
	var sink uint16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= CRC16(v, uint8(i))
	}
	reportNsPerBit(b, v.Len())
	_ = sink
}

func BenchmarkHEC(b *testing.B) {
	hdr := rndVec(rand.New(rand.NewSource(3)), 10)
	var sink uint8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= HEC(hdr, uint8(i))
	}
	reportNsPerBit(b, hdr.Len())
	_ = sink
}

func BenchmarkFEC13Encode(b *testing.B) {
	v := rndVec(rand.New(rand.NewSource(4)), dh5Bits)
	var sink *bits.Vec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = EncodeFEC13(v)
	}
	reportNsPerBit(b, v.Len())
	_ = sink
}

func BenchmarkFEC13Decode(b *testing.B) {
	enc := EncodeFEC13(rndVec(rand.New(rand.NewSource(5)), dh5Bits))
	var sink *bits.Vec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, _, _ = DecodeFEC13(enc)
	}
	reportNsPerBit(b, enc.Len())
	_ = sink
}

func BenchmarkFEC23Encode(b *testing.B) {
	v := rndVec(rand.New(rand.NewSource(6)), dh5Bits)
	var sink *bits.Vec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = EncodeFEC23(v)
	}
	reportNsPerBit(b, v.Len())
	_ = sink
}

func BenchmarkFEC23Decode(b *testing.B) {
	enc := EncodeFEC23(rndVec(rand.New(rand.NewSource(7)), dh5Bits))
	var sink *bits.Vec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, _, _ = DecodeFEC23(enc)
	}
	reportNsPerBit(b, enc.Len())
	_ = sink
}
