// Package packet implements the Bluetooth baseband packet formats the
// paper's transmitter/receiver modules build and interpret: the ID
// packet (bare access code), NULL/POLL control packets, the FHS packet
// that carries address and clock during piconet creation, and the
// DM1/3/5 (FEC-protected) and DH1/3/5 (unprotected) data packets whose
// noise behaviour the paper's throughput/power analyses compare.
//
// Assembly follows the standard's transmit chain: header → HEC →
// whitening → FEC 1/3; payload → CRC → whitening → (FEC 2/3 for DM/FHS).
// Parsing runs the chain backwards and reports exactly which stage a
// corrupted packet dies at, which is what the BER experiments measure.
package packet

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/access"
	"repro/internal/bits"
	"repro/internal/coding"
)

// Type is the 4-bit packet type code from the packet header (ACL types
// of Bluetooth 1.2 part B §6.5).
type Type uint8

// Packet type codes. ID is not a real header type (an ID packet has no
// header); it gets a sentinel value for logging and dispatch.
const (
	TypeNull Type = 0x0
	TypePoll Type = 0x1
	TypeFHS  Type = 0x2
	TypeDM1  Type = 0x3
	TypeDH1  Type = 0x4
	TypeHV1  Type = 0x5
	TypeHV2  Type = 0x6
	TypeHV3  Type = 0x7
	TypeAUX1 Type = 0x9
	TypeDM3  Type = 0xA
	TypeDH3  Type = 0xB
	TypeDM5  Type = 0xE
	TypeDH5  Type = 0xF
	TypeID   Type = 0xFF
)

// String names the type for traces and logs.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypePoll:
		return "POLL"
	case TypeFHS:
		return "FHS"
	case TypeDM1:
		return "DM1"
	case TypeDH1:
		return "DH1"
	case TypeHV1:
		return "HV1"
	case TypeHV2:
		return "HV2"
	case TypeHV3:
		return "HV3"
	case TypeAUX1:
		return "AUX1"
	case TypeDM3:
		return "DM3"
	case TypeDH3:
		return "DH3"
	case TypeDM5:
		return "DM5"
	case TypeDH5:
		return "DH5"
	case TypeID:
		return "ID"
	}
	return fmt.Sprintf("TYPE(%d)", uint8(t))
}

// Slots returns how many 625 µs slots the type occupies on air.
func (t Type) Slots() int {
	switch t {
	case TypeDM3, TypeDH3:
		return 3
	case TypeDM5, TypeDH5:
		return 5
	default:
		return 1
	}
}

// IsSCO reports whether the type is a synchronous (voice) packet: fixed
// length, no CRC, no retransmission.
func (t Type) IsSCO() bool {
	switch t {
	case TypeHV1, TypeHV2, TypeHV3:
		return true
	}
	return false
}

// MaxPayload returns the maximum user-payload bytes for a data type
// (zero for control packets). For the HV types it is also the exact
// required length.
func (t Type) MaxPayload() int {
	switch t {
	case TypeHV1:
		return 10
	case TypeHV2:
		return 20
	case TypeHV3:
		return 30
	case TypeDM1:
		return 17
	case TypeDH1:
		return 27
	case TypeAUX1:
		return 29
	case TypeDM3:
		return 121
	case TypeDH3:
		return 183
	case TypeDM5:
		return 224
	case TypeDH5:
		return 339
	default:
		return 0
	}
}

// fec23 reports whether the payload is rate-2/3 FEC protected.
func (t Type) fec23() bool {
	switch t {
	case TypeFHS, TypeDM1, TypeDM3, TypeDM5, TypeHV2:
		return true
	}
	return false
}

// fec13Payload reports whether the payload is rate-1/3 FEC protected
// (only HV1 voice).
func (t Type) fec13Payload() bool { return t == TypeHV1 }

// hasCRC reports whether the payload carries a CRC-16.
func (t Type) hasCRC() bool {
	switch t {
	case TypeDM1, TypeDM3, TypeDM5, TypeDH1, TypeDH3, TypeDH5, TypeFHS:
		return true
	}
	return false
}

// payloadHeaderBits is 8 for single-slot data packets, 16 for multi-slot.
func (t Type) payloadHeaderBits() int {
	switch t {
	case TypeDM1, TypeDH1, TypeAUX1:
		return 8
	case TypeDM3, TypeDH3, TypeDM5, TypeDH5:
		return 16
	}
	return 0
}

// LLID values for the payload header's logical channel field.
const (
	LLIDL2CAPContinue = 0x1
	LLIDL2CAPStart    = 0x2
	LLIDLMP           = 0x3
)

// Header is the 18-bit packet header (before HEC/FEC).
type Header struct {
	AMAddr uint8 // 3-bit active member address; 0 = broadcast
	Type   Type
	Flow   bool // baseband flow control
	ARQN   bool // acknowledgement of the previous reception
	SEQN   bool // sequence bit for duplicate filtering
}

// FHSPayload is the decoded content of an FHS packet: everything a
// scanner needs to join (or create) a piconet.
type FHSPayload struct {
	LAP    uint32 // lower address part of the sender
	UAP    uint8
	NAP    uint16
	Class  uint32 // 24-bit class of device
	AMAddr uint8  // AM_ADDR assigned to the recipient (page response)
	CLK    uint32 // sender's CLKN bits 27-2 at transmission, re-shifted
	SR     uint8  // scan repetition field
}

// Packet is a baseband packet in logical form.
type Packet struct {
	// AccessLAP selects the access code: the master's LAP in connection
	// state (CAC), the paged device's LAP (DAC), or GIAC for inquiry.
	AccessLAP uint32
	// Header is nil exactly for ID packets.
	Header *Header
	// FHS is set when Header.Type == TypeFHS.
	FHS *FHSPayload
	// Payload is the user/LMP data of DM/DH/AUX packets.
	Payload []byte
	// LLID tags the payload's logical channel.
	LLID uint8
	// PFlow is the payload-header flow bit.
	PFlow bool
}

// NewID builds an ID packet for a LAP (inquiry or page trains).
func NewID(lap uint32) *Packet { return &Packet{AccessLAP: lap} }

// IsID reports whether p is an ID packet.
func (p *Packet) IsID() bool { return p.Header == nil }

// Type returns the packet type, TypeID for ID packets.
func (p *Packet) Type() Type {
	if p.Header == nil {
		return TypeID
	}
	return p.Header.Type
}

// AirBits returns the on-air length in bits (= duration in µs at
// 1 Mbit/s).
func (p *Packet) AirBits() int {
	if p.IsID() {
		return 68
	}
	n := 72 + 54 // access code with trailer + FEC-1/3 header
	t := p.Header.Type
	bits := p.payloadBitLen()
	switch {
	case t.IsSCO():
		return n + 240 // all HV types fill 240 payload bits
	case t.fec23():
		return n + (bits+9)/10*15
	}
	return n + bits
}

// payloadBitLen is the length of the payload before whitening and FEC:
// payload header, data and CRC.
func (p *Packet) payloadBitLen() int {
	t := p.Header.Type
	switch {
	case t == TypeFHS:
		return 144 + 16
	case t.IsSCO():
		return 8 * len(p.Payload)
	case t.MaxPayload() == 0:
		return 0
	}
	bits := t.payloadHeaderBits() + 8*len(p.Payload)
	if t.hasCRC() {
		bits += 16
	}
	return bits
}

// Errors reported by Parse, ordered by receive-chain stage.
var (
	ErrAccessCode = errors.New("packet: access code correlation failed")
	ErrHeaderFEC  = errors.New("packet: header FEC unrecoverable")
	ErrHEC        = errors.New("packet: header error check failed")
	ErrPayloadFEC = errors.New("packet: payload FEC unrecoverable")
	ErrCRC        = errors.New("packet: payload CRC failed")
	ErrMalformed  = errors.New("packet: malformed payload structure")
)

// RxInfo reports reception quality for instrumentation.
type RxInfo struct {
	SyncErrors      int // bit errors in the sync word
	HeaderCorrected int // FEC-1/3 corrections in the header
	PayloadFixed    int // FEC-2/3 corrections in the payload
}

// Codec is the reusable working memory of one transmitter's and
// receiver's packet chains: the payload staged between whitening and
// FEC, the decoded (or held) packet, header, FHS fields and quality
// report, and the unpacked payload bytes. A device holds one, so its
// steady-state traffic assembles and parses without allocating. The
// zero Codec is ready for use; its buffers grow to the largest packet
// seen and stay.
type Codec struct {
	pl      bits.Vec // payload before FEC (Assemble) or after it (Parse)
	pkt     Packet
	hdr     Header
	fhs     FHSPayload
	info    RxInfo
	payload []byte
}

// Assemble serialises the packet to on-air bits in a fresh vector. uap
// and clk are the receiver-agreed values (sender's UAP for HEC/CRC,
// piconet clock for whitening); for ID packets they are unused.
func (p *Packet) Assemble(uap uint8, clk uint32) *bits.Vec {
	var c Codec
	out := bits.NewVec(p.AirBits())
	c.Assemble(out, p, uap, clk)
	return out
}

// Assemble appends the on-air bits of p to out (see Packet.Assemble).
// It writes only c's staging space, so p may be c's held packet.
func (c *Codec) Assemble(out *bits.Vec, p *Packet, uap uint8, clk uint32) {
	out.Grow(p.AirBits())
	if p.IsID() {
		access.AppendCode(out, p.AccessLAP, false)
		return
	}
	access.AppendCode(out, p.AccessLAP, true)

	w := coding.NewWhitener(clk)
	h := p.Header
	hdr := uint64(h.AMAddr&0x7) | uint64(h.Type&0xF)<<3 | uint64(boolBit(h.Flow))<<7 |
		uint64(boolBit(h.ARQN))<<8 | uint64(boolBit(h.SEQN))<<9
	hdr |= uint64(coding.HECUint(hdr, 10, uap)) << 10
	hdr ^= w.Next(18)
	out.AppendUint(coding.EncodeFEC13Uint(hdr, 18), 54)

	t := h.Type
	switch {
	case t == TypeNull || t == TypePoll:
	case t.fec13Payload() || t.fec23():
		// FEC comes after whitening, so the payload is staged apart.
		pl := &c.pl
		pl.Reset()
		pl.Grow(p.payloadBitLen())
		p.appendPayload(pl, uap)
		w.Apply(pl)
		if t.fec13Payload() {
			coding.AppendFEC13(out, pl)
		} else {
			coding.AppendFEC23(out, pl)
		}
	default:
		start := out.Len()
		p.appendPayload(out, uap)
		w.ApplyRange(out, start, out.Len())
	}
}

// appendPayload appends the unwhitened, un-FEC'd payload bit string
// (payload header + data + CRC) to v.
func (p *Packet) appendPayload(v *bits.Vec, uap uint8) {
	t := p.Header.Type
	if t == TypeFHS {
		p.appendFHS(v, uap)
		return
	}
	p.checkPayload()
	if t.IsSCO() {
		v.AppendBytes(p.Payload)
		return
	}
	phb := t.payloadHeaderBits()
	if phb == 0 {
		return // an undefined type: no payload header, no payload
	}
	start := v.Len()
	ph := uint64(p.LLID&0x3) | uint64(boolBit(p.PFlow))<<2
	v.AppendUint(ph|uint64(len(p.Payload))<<3, phb) // 16 bits: 4 undefined high bits
	v.AppendBytes(p.Payload)
	if t.hasCRC() {
		v.AppendUint(uint64(coding.CRC16Range(v, start, v.Len(), uap)), 16)
	}
}

// checkPayload panics on a payload length the type cannot carry: a
// voice frame must fill its type exactly, data must fit its maximum.
func (p *Packet) checkPayload() {
	t := p.Header.Type
	if t.IsSCO() {
		if len(p.Payload) != t.MaxPayload() {
			panic(fmt.Sprintf("packet: %v voice frame must be exactly %d bytes, got %d",
				t, t.MaxPayload(), len(p.Payload)))
		}
		return
	}
	if len(p.Payload) > t.MaxPayload() {
		panic(fmt.Sprintf("packet: %v payload %d exceeds max %d", t, len(p.Payload), t.MaxPayload()))
	}
}

// appendFHS appends the FHS information (144 bits) plus CRC to v.
func (p *Packet) appendFHS(v *bits.Vec, uap uint8) {
	f := p.FHS
	start := v.Len()
	v.AppendUint(access.SyncWord(f.LAP)>>30, 34) // parity bits field
	v.AppendUint(uint64(f.LAP&0xFFFFFF), 24)
	v.AppendUint(0, 2)                // undefined
	v.AppendUint(uint64(f.SR&0x3), 2) // scan repetition
	v.AppendUint(0, 2)                // scan period (reserved in 1.2)
	v.AppendUint(uint64(f.UAP), 8)
	v.AppendUint(uint64(f.NAP), 16)
	v.AppendUint(uint64(f.Class&0xFFFFFF), 24)
	v.AppendUint(uint64(f.AMAddr&0x7), 3)
	v.AppendUint(uint64((f.CLK>>2)&0x3FFFFFF), 26) // CLK27-2
	v.AppendUint(0, 3)                             // page scan mode
	v.AppendUint(uint64(coding.CRC16Range(v, start, v.Len(), uap)), 16)
}

func boolBit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Parse decodes received on-air bits. expectLAP is the access code the
// receiver's correlator is armed with; uap/clk as in Assemble; threshold
// is the correlator's sync-error budget. ID packets parse as soon as the
// access code correlates and the length is the bare 68-bit form. The
// result is the caller's to keep; a receiver that parses every packet
// uses a Codec instead.
func Parse(rx *bits.Vec, expectLAP uint32, uap uint8, clk uint32, threshold int) (*Packet, *RxInfo, error) {
	return new(Codec).Parse(rx, expectLAP, uap, clk, threshold)
}

// Parse decodes rx like the package-level Parse, into the codec: the
// packet, its header, FHS fields and payload bytes, and the quality
// report all live in c and are valid until c's next Assemble or Parse.
// A caller that hands the payload on copies it first.
func (c *Codec) Parse(rx *bits.Vec, expectLAP uint32, uap uint8, clk uint32, threshold int) (*Packet, *RxInfo, error) {
	info := &c.info
	*info = RxInfo{}
	errs, ok := access.Correlate(rx, expectLAP, threshold)
	info.SyncErrors = errs
	if !ok {
		return nil, info, ErrAccessCode
	}
	p := &c.pkt
	if rx.Len() < 72+54 {
		*p = Packet{AccessLAP: expectLAP}
		return p, info, nil
	}

	// The header is decoded, dewhitened and checked as an integer.
	w := coding.NewWhitener(clk)
	hdr, corrected := coding.DecodeFEC13Uint(rx.Uint(72, 54), 18)
	info.HeaderCorrected = corrected
	hdr ^= w.Next(18)
	if coding.HECUint(hdr, 10, uap) != uint8(hdr>>10) {
		return nil, info, ErrHEC
	}
	h := &c.hdr
	*h = Header{
		AMAddr: uint8(hdr & 0x7),
		Type:   Type(hdr >> 3 & 0xF),
		Flow:   hdr>>7&1 == 1,
		ARQN:   hdr>>8&1 == 1,
		SEQN:   hdr>>9&1 == 1,
	}
	*p = Packet{AccessLAP: expectLAP, Header: h}

	switch h.Type {
	case TypeNull, TypePoll:
		return p, info, nil
	}
	if h.Type.IsSCO() {
		return c.parseSCO(rx, w)
	}
	body := &c.pl
	body.Reset()
	body.Grow(rx.Len() - (72 + 54))
	if h.Type.fec23() {
		fixed, ok := coding.AppendDecodeFEC23(body, rx, 72+54, rx.Len())
		if !ok {
			return nil, info, ErrPayloadFEC
		}
		info.PayloadFixed = fixed
	} else {
		body.AppendRange(rx, 72+54, rx.Len())
	}
	w.Apply(body)

	if h.Type == TypeFHS {
		if err := c.parseFHS(uap); err != nil {
			return nil, info, err
		}
		return p, info, nil
	}

	phb := h.Type.payloadHeaderBits()
	if phb == 0 || body.Len() < phb {
		return nil, info, ErrMalformed
	}
	ph := body.Uint(0, phb)
	p.LLID = uint8(ph & 0x3)
	p.PFlow = ph>>2&1 == 1
	length := int(ph >> 3 & 0x1F)
	if phb == 16 {
		length = int(ph >> 3 & 0x1FF)
	}
	if length > h.Type.MaxPayload() {
		return nil, info, ErrMalformed
	}
	end := phb + 8*length
	crcBits := 0
	if h.Type.hasCRC() {
		crcBits = 16
	}
	if body.Len() < end+crcBits {
		return nil, info, ErrMalformed
	}
	if crcBits > 0 {
		crc := uint16(body.Uint(end, 16))
		if coding.CRC16Range(body, 0, end, uap) != crc {
			return nil, info, ErrCRC
		}
	}
	if length > 0 {
		c.payload = body.AppendBytesRange(slices.Grow(c.payload[:0], length), phb, end)
		p.Payload = c.payload
	}
	return p, info, nil
}

// parseSCO decodes a voice payload into c: HV1 majority-votes its
// repetition code, HV2's Hamming blocks may declare an erasure, HV3
// delivers the raw (possibly corrupted) bits — voice has no CRC and no
// ARQ.
func (c *Codec) parseSCO(rx *bits.Vec, w *coding.Whitener) (*Packet, *RxInfo, error) {
	p, info := &c.pkt, &c.info
	t := p.Header.Type
	want := t.MaxPayload() * 8
	body := &c.pl
	body.Reset()
	body.Grow(rx.Len() - (72 + 54))
	switch {
	case t.fec13Payload() || t.fec23():
		var fixed int
		var ok bool
		if t.fec13Payload() {
			fixed, ok = coding.AppendDecodeFEC13(body, rx, 72+54, rx.Len())
		} else {
			fixed, ok = coding.AppendDecodeFEC23(body, rx, 72+54, rx.Len())
		}
		if !ok || body.Len() < want {
			return nil, info, ErrPayloadFEC
		}
		info.PayloadFixed = fixed
	default:
		if rx.Len()-(72+54) < want {
			return nil, info, ErrMalformed
		}
		body.AppendRange(rx, 72+54, 72+54+want)
	}
	w.ApplyRange(body, 0, want)
	c.payload = body.AppendBytesRange(slices.Grow(c.payload[:0], want/8), 0, want)
	p.Payload = c.payload
	return p, info, nil
}

// parseFHS decodes the FHS information field of the dewhitened body
// into c's FHS payload.
func (c *Codec) parseFHS(uap uint8) error {
	body := &c.pl
	if body.Len() < 160 {
		return ErrMalformed
	}
	crc := uint16(body.Uint(144, 16))
	if coding.CRC16Range(body, 0, 144, uap) != crc {
		return ErrCRC
	}
	c.fhs = FHSPayload{
		LAP:    uint32(body.Uint(34, 24)),
		SR:     uint8(body.Uint(60, 2)),
		UAP:    uint8(body.Uint(64, 8)),
		NAP:    uint16(body.Uint(72, 16)),
		Class:  uint32(body.Uint(88, 24)),
		AMAddr: uint8(body.Uint(112, 3)),
		CLK:    uint32(body.Uint(115, 26)) << 2,
	}
	c.pkt.FHS = &c.fhs
	return nil
}

// Hold copies p into c (header, FHS fields and payload bytes) and
// returns the copy, valid until c's next Hold, Clean or Parse. A
// transmitter that assembles its bits later, and maybe never, holds
// the packet so that the original may change in the meantime; c's own
// Assemble may then code the copy. Hold panics where Assemble would, on
// a payload the type cannot carry, and on a header type wider than its
// four bits: a bad packet fails where it is sent, bits or no bits.
func (c *Codec) Hold(p *Packet) *Packet {
	q := &c.pkt
	*q = *p
	if h := p.Header; h != nil {
		if h.Type > 0xF {
			panic(fmt.Sprintf("packet: header type %v does not fit 4 bits", h.Type))
		}
		if t := h.Type; t != TypeNull && t != TypePoll && t != TypeFHS {
			p.checkPayload()
		}
		c.hdr = *h
		q.Header = &c.hdr
	}
	if p.FHS != nil {
		c.fhs = *p.FHS
		q.FHS = &c.fhs
	}
	c.payload = append(c.payload[:0], p.Payload...) // poisoning covers this packet's bytes only
	if p.Payload != nil {
		q.Payload = c.payload
	}
	return q
}

// Clean returns what c.Parse(Assemble(p, uap, clk), p.AccessLAP, uap,
// clk, threshold) returns, for any uap and clk, without coding a bit:
// on noiseless air a receiver armed with the transmitter's LAP, UAP and
// whitening clock gets back exactly the fields the air format carries.
// Those are the header fields and LLID cut to their widths, the payload
// (nil when empty), and the FHS fields cut to theirs: LAP and class to
// 24 bits, SR to 2, AM_ADDR to 3, and CLK to its bits 27-2. The quality
// report is zero. Like Parse it fills c, and p must not live in c. p's
// header type fits four bits (Hold panics otherwise).
func (c *Codec) Clean(p *Packet, threshold int) (*Packet, *RxInfo, error) {
	info := &c.info
	*info = RxInfo{}
	if threshold < 0 {
		return nil, info, ErrAccessCode // no budget admits even a clean sync word
	}
	q := &c.pkt
	*q = Packet{AccessLAP: p.AccessLAP}
	h := p.Header
	if h == nil {
		return q, info, nil
	}
	c.hdr = Header{AMAddr: h.AMAddr & 0x7, Type: h.Type & 0xF, Flow: h.Flow, ARQN: h.ARQN, SEQN: h.SEQN}
	q.Header = &c.hdr
	switch t := c.hdr.Type; {
	case t == TypeNull || t == TypePoll:
	case t == TypeFHS:
		f := p.FHS
		c.fhs = FHSPayload{
			LAP:    f.LAP & 0xFFFFFF,
			SR:     f.SR & 0x3,
			UAP:    f.UAP,
			NAP:    f.NAP,
			Class:  f.Class & 0xFFFFFF,
			AMAddr: f.AMAddr & 0x7,
			CLK:    (f.CLK >> 2 & 0x3FFFFFF) << 2,
		}
		q.FHS = &c.fhs
	case t.IsSCO():
		p.checkPayload()
		c.payload = append(c.payload[:0], p.Payload...)
		q.Payload = c.payload
	case t.payloadHeaderBits() == 0:
		p.checkPayload() // an undefined type: no payload header to parse
		return nil, info, ErrMalformed
	default:
		p.checkPayload()
		q.LLID = p.LLID & 0x3
		q.PFlow = p.PFlow
		if len(p.Payload) > 0 {
			c.payload = append(c.payload[:0], p.Payload...)
			q.Payload = c.payload
		}
	}
	return q, info, nil
}

// Poison overwrites everything a parse or Hold left in c (see
// bits.Poison): a receiver poisons its codec once it has handed the
// packet on, and a transmitter once its held packet has left the air,
// so a reader that kept the packet past that point reads garbage. It
// does nothing unless the module is built with the poison tag.
func (c *Codec) Poison() {
	if !bits.Poisoning {
		return
	}
	bits.Poison(&c.pl)
	bits.PoisonBytes(c.payload)
	c.hdr = Header{AMAddr: ^c.hdr.AMAddr, Type: ^c.hdr.Type, Flow: !c.hdr.Flow, ARQN: !c.hdr.ARQN, SEQN: !c.hdr.SEQN}
	c.fhs = FHSPayload{LAP: ^c.fhs.LAP, UAP: ^c.fhs.UAP, NAP: ^c.fhs.NAP, Class: ^c.fhs.Class,
		AMAddr: ^c.fhs.AMAddr, CLK: ^c.fhs.CLK, SR: ^c.fhs.SR}
	c.pkt.LLID = ^c.pkt.LLID
	c.pkt.PFlow = !c.pkt.PFlow
}
