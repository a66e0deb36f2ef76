package baseband

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// SCOLink is a synchronous connection-oriented (voice) link: reserved
// slot pairs every Tsco slots carrying fixed-size HV packets with no CRC
// and no retransmission — the standard's second link type, which the
// paper's introduction lists alongside ACL.
type SCOLink struct {
	dev *Device

	// ACL is the underlying asynchronous link the SCO was set up over.
	ACL *Link
	// Type is the voice packet type: HV1 (1/3 FEC), HV2 (2/3), HV3 (none).
	Type packet.Type
	// TscoSlots is the reservation period: 2 (HV1), 4 (HV2), 6 (HV3) for
	// a full-rate voice channel, or larger for sub-rate links.
	TscoSlots int
	// DscoEven is the reservation offset in even-slot index units.
	DscoEven int

	// Source produces the next outgoing voice frame (exactly
	// Type.MaxPayload() bytes). A nil source sends silence.
	Source func() []byte
	// Sink consumes received voice frames.
	Sink func(frame []byte)

	// Counters.
	TxFrames int
	RxFrames int
}

// scoDue returns the SCO link reserved for the even slot starting now,
// or nil.
func (d *Device) scoDue(now sim.Time) *SCOLink {
	evenIdx := d.Clock.CLK(now) >> 2
	for _, sco := range d.scoLinks {
		if sco.reservedAt(evenIdx) {
			return sco
		}
	}
	return nil
}

func (s *SCOLink) reservedAt(evenIdx uint32) bool {
	period := uint32(s.TscoSlots / 2)
	if period == 0 {
		return false
	}
	return (evenIdx-uint32(s.DscoEven))%period == 0
}

// evenSlotsToNextSCO returns how many even slots remain before the next
// reserved SCO slot strictly after the current one (used by the ACL
// scheduler to keep multi-slot packets out of reservations). It returns
// a large number when no SCO links exist.
func (d *Device) evenSlotsToNextSCO(evenIdx uint32) uint32 {
	const horizon = 1 << 20
	best := uint32(horizon)
	for _, sco := range d.scoLinks {
		period := int64(sco.TscoSlots / 2)
		if period == 0 {
			continue
		}
		// Signed arithmetic: an unsigned subtraction would wrap through
		// 2^32, which is not a multiple of odd periods (Tsco = 6 gave an
		// off-by-one gap that made the scheduler miss HV3 reservations).
		gap := ((int64(sco.DscoEven)-int64(evenIdx)-1)%period + period) % period
		if uint32(gap)+1 < best {
			best = uint32(gap) + 1
		}
	}
	return best
}

// voiceFrame produces the next outgoing frame for the link.
func (s *SCOLink) voiceFrame() []byte {
	if s.Source != nil {
		f := s.Source()
		if len(f) != s.Type.MaxPayload() {
			panic(fmt.Sprintf("baseband: SCO source produced %d bytes, want %d",
				len(f), s.Type.MaxPayload()))
		}
		return f
	}
	return silence[:s.Type.MaxPayload()]
}

// silence is the frame a source-less voice link sends; packets only
// read their payloads, so every link shares it.
var silence [30]byte

// AddSCO reserves a synchronous voice channel on an established ACL
// link (master side). Call AcceptSCO with the same parameters on the
// slave, or negotiate over the air with lmp.Manager.RequestSCO.
func (d *Device) AddSCO(acl *Link, ty packet.Type, tscoSlots, dscoEven int) *SCOLink {
	validateSCO(ty, tscoSlots)
	sco := &SCOLink{dev: d, ACL: acl, Type: ty, TscoSlots: tscoSlots, DscoEven: dscoEven}
	d.scoLinks = append(d.scoLinks, sco)
	d.wakeMaster() // the new reservation may precede the parked wake-up
	return sco
}

// AcceptSCO installs the slave end of a voice channel.
func (d *Device) AcceptSCO(ty packet.Type, tscoSlots, dscoEven int) *SCOLink {
	validateSCO(ty, tscoSlots)
	sco := &SCOLink{dev: d, ACL: d.mlink, Type: ty, TscoSlots: tscoSlots, DscoEven: dscoEven}
	d.scoLinks = append(d.scoLinks, sco)
	return sco
}

// RemoveSCO releases the reservation.
func (d *Device) RemoveSCO(sco *SCOLink) {
	kept := d.scoLinks[:0]
	for _, s := range d.scoLinks {
		if s != sco {
			kept = append(kept, s)
		}
	}
	d.scoLinks = kept
}

// SCOLinks returns the device's active voice channels.
func (d *Device) SCOLinks() []*SCOLink { return d.scoLinks }

func validateSCO(ty packet.Type, tscoSlots int) {
	if !ty.IsSCO() {
		panic(fmt.Sprintf("baseband: %v is not a voice packet type", ty))
	}
	if tscoSlots < 2 || tscoSlots%2 != 0 {
		panic(fmt.Sprintf("baseband: Tsco must be even and >= 2, got %d", tscoSlots))
	}
	min := map[packet.Type]int{packet.TypeHV1: 2, packet.TypeHV2: 4, packet.TypeHV3: 6}[ty]
	if tscoSlots < min {
		panic(fmt.Sprintf("baseband: %v needs Tsco >= %d to fit the voice stream", ty, min))
	}
}

// transmitSCOSlot runs the master's reserved slot: send the voice frame
// and listen for the slave's return frame in the following slot.
func (d *Device) transmitSCOSlot(sco *SCOLink, now sim.Time) {
	clk := d.Clock.CLK(now)
	p := sco.ACL.scratchPacket(d.cfg.Addr.LAP, sco.Type)
	p.Payload = sco.voiceFrame()
	d.transmit(p, sco.ACL, d.cfg.Addr.UAP, clk, d.chanFreq(d.ownSel, clk))
	sco.TxFrames++

	respAt := now + sim.Time(sim.Slots(1))
	d.masterRespAt = respAt
	d.tMasterOpen.At(respAt - sim.Time(d.leadTicks()))
	d.tMasterCls.At(respAt + sim.Time(sim.Microseconds(carrierSenseUS)))
	d.scheduleMasterSlot(respAt + sim.Time(sim.Slots(1)))
}

// handleSCORx routes a received voice packet (either direction); on the
// slave it also sends the return frame in the next slot.
func (d *Device) handleSCORx(p *packet.Packet, rxStart sim.Time) {
	var sco *SCOLink
	for _, s := range d.scoLinks {
		if s.ACL != nil && s.ACL.AMAddr == p.Header.AMAddr {
			sco = s
			break
		}
	}
	if sco == nil {
		return
	}
	sco.RxFrames++
	if sco.Sink != nil {
		sco.Sink(handUp(p.Payload))
	}
	if d.isMaster {
		return
	}
	// Slave: the return voice frame goes in the next slot. The response
	// reuses the ACL response timer — the scheduler keeps reserved SCO
	// slots and ACL response slots disjoint, so at most one response is
	// pending at a time.
	d.scoRespLink = sco
	d.slaveRespFn = fnTagSCORespond
	d.tSlaveResp.AtFn(rxStart+sim.Time(sim.Slots(1)), d.fnScoRespond)
}

// scoRespond transmits the slave's return voice frame.
func (d *Device) scoRespond() {
	sco := d.scoRespLink
	if sco == nil || sco.ACL == nil {
		return
	}
	clk := d.Clock.CLK(d.now())
	resp := sco.ACL.scratchPacket(sco.ACL.Master.LAP, sco.Type)
	resp.Payload = sco.voiceFrame()
	d.transmit(resp, sco.ACL, sco.ACL.Master.UAP, clk, d.chanFreq(sco.ACL.sel, clk))
	sco.TxFrames++
}
