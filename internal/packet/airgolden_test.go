package packet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/bits"
)

// airGoldenDigest pins the on-air format: the assembled bits of every
// packet type across all 64 whitening seeds, two UAPs and payload
// lengths {0, 1, max}, plus the Parse outcome of DM1, DH5 and FHS after
// every single-bit flip. Any change to the access code, header, HEC,
// CRC, whitening or FEC layout — or to which receive stage a corrupted
// packet dies at — moves it.
const airGoldenDigest = "79f93bac5b0a78496ba785c761630768e709a9f01cb1982c2629f26a6c984aef"

// airGoldenTypes is every header packet type plus ID.
var airGoldenTypes = []Type{TypeID, TypeNull, TypePoll, TypeFHS, TypeDM1,
	TypeDH1, TypeHV1, TypeHV2, TypeHV3, TypeAUX1, TypeDM3, TypeDH3,
	TypeDM5, TypeDH5}

// airGoldenUAPs are the two UAPs the sweep assembles under.
var airGoldenUAPs = []uint8{0x47, 0xB8}

// airGoldenPacket builds the sweep's packet of type ty with n payload
// bytes; seed varies the header fields and payload content.
func airGoldenPacket(ty Type, n int, seed uint32) *Packet {
	if ty == TypeID {
		return NewID(testLAP)
	}
	p := &Packet{
		AccessLAP: testLAP,
		Header: &Header{AMAddr: uint8(seed) & 7, Type: ty,
			Flow: seed&8 != 0, ARQN: seed&16 != 0, SEQN: seed&32 != 0},
		LLID:  uint8(seed>>1)&3 | 1,
		PFlow: seed&1 != 0,
	}
	if ty == TypeFHS {
		p.FHS = &FHSPayload{LAP: 0x9E8B33 ^ seed<<4, UAP: 0x5A ^ uint8(seed),
			NAP: 0x1234 + uint16(seed), Class: 0x20041C, AMAddr: uint8(seed>>3) & 7,
			CLK: 0x2A5F3C4 ^ seed<<7, SR: uint8(seed) & 3}
		return p
	}
	if n > 0 {
		p.Payload = make([]byte, n)
		for i := range p.Payload {
			p.Payload[i] = byte(i*37+11) ^ byte(seed)
		}
	}
	return p
}

// airGoldenLengths returns the payload lengths the sweep covers for ty.
func airGoldenLengths(ty Type) []int {
	switch {
	case ty.IsSCO():
		return []int{ty.MaxPayload()}
	case ty.MaxPayload() > 0:
		return []int{0, 1, ty.MaxPayload()}
	}
	return []int{0}
}

// hashVec feeds a vector's length and packed bytes into h.
func hashVec(h hash.Hash, v *bits.Vec) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(v.Len()))
	h.Write(n[:])
	h.Write(v.Bytes())
}

// parseStage numbers Parse's errors in receive-chain order.
func parseStage(err error) byte {
	for i, e := range []error{nil, ErrAccessCode, ErrHeaderFEC, ErrHEC,
		ErrPayloadFEC, ErrCRC, ErrMalformed} {
		if err == e {
			return byte(i)
		}
	}
	return 0xFF
}

// hashParse feeds one Parse outcome into h: the error stage, the
// reception report and, on success, the decoded packet.
func hashParse(h hash.Hash, p *Packet, info *RxInfo, err error) {
	h.Write([]byte{parseStage(err), byte(info.SyncErrors),
		byte(info.HeaderCorrected), byte(info.PayloadFixed)})
	if err != nil {
		return
	}
	if p.Header != nil {
		hd := p.Header
		h.Write([]byte{byte(hd.Type), hd.AMAddr, boolBit(hd.Flow),
			boolBit(hd.ARQN), boolBit(hd.SEQN), p.LLID, boolBit(p.PFlow)})
	}
	if f := p.FHS; f != nil {
		var b [19]byte
		binary.LittleEndian.PutUint32(b[0:], f.LAP)
		binary.LittleEndian.PutUint32(b[4:], f.Class)
		binary.LittleEndian.PutUint32(b[8:], f.CLK)
		binary.LittleEndian.PutUint16(b[12:], f.NAP)
		b[14], b[15], b[16] = f.UAP, f.AMAddr, f.SR
		h.Write(b[:])
	}
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(p.Payload)))
	h.Write(n[:])
	h.Write(p.Payload)
}

func TestAirBitsGolden(t *testing.T) {
	h := sha256.New()
	for _, ty := range airGoldenTypes {
		flips := ty == TypeDM1 || ty == TypeDH5 || ty == TypeFHS
		for _, n := range airGoldenLengths(ty) {
			for _, uap := range airGoldenUAPs {
				for seed := uint32(0); seed < 64; seed++ {
					clk := seed << 1 // CLK6-1 selects the whitening seed
					v := airGoldenPacket(ty, n, seed).Assemble(uap, clk)
					hashVec(h, v)
					if !flips {
						continue
					}
					rx := v.Clone()
					for i := 0; i < rx.Len(); i++ {
						rx.FlipBit(i)
						p, info, err := Parse(rx, testLAP, uap, clk, 7)
						hashParse(h, p, info, err)
						rx.FlipBit(i)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != airGoldenDigest {
		t.Fatalf("air-format digest = %s, want %s", got, airGoldenDigest)
	}
}
