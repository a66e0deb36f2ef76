package baseband

import "repro/internal/hop"

// Membership is a slave device's attachment to one piconet, detached
// from the radio: the ACL link (which carries the AM_ADDR, the hop
// selector for the master's address and the negotiated power mode), the
// CLKN→CLK offset that aligns the device with that piconet's slot grid,
// and the AFH channel map in force when the membership was captured.
//
// A scatternet bridge holds one Membership per piconet and timeshares
// the single radio between them: ActivateMembership retunes the device
// — clock offset, hop sequence, channel map, listen loop — to one
// piconet, leaving the others' link state (ARQ, sniff windows,
// supervision baseline) frozen until their next activation. The piconet
// clocks in this model never drift, so a captured offset stays valid
// indefinitely.
type Membership struct {
	// Link is the slave-side ACL link of this piconet.
	Link *Link

	clockOffset uint32
	afhMap      *hop.ChannelMap
}

// ClockOffset returns the CLKN→CLK offset the membership captured.
func (m *Membership) ClockOffset() uint32 { return m.clockOffset }

// AFHMap returns the AFH channel map in force at capture (nil = full
// 79-channel set).
func (m *Membership) AFHMap() *hop.ChannelMap { return m.afhMap }

// RestoreMembership rebuilds a suspended membership from checkpointed
// parts: the restored slave-side link, the captured clock offset and the
// AFH map (which checkpoints capture as an LMP bitmask).
func RestoreMembership(link *Link, clockOffset uint32, afh *hop.ChannelMap) *Membership {
	return &Membership{Link: link, clockOffset: clockOffset, afhMap: afh}
}

// CaptureMembership snapshots the device's current piconet attachment
// without detaching from it. The device must be a connected slave.
func (d *Device) CaptureMembership() *Membership {
	if d.isMaster || d.state != StateConnection || d.mlink == nil {
		panic("baseband: CaptureMembership requires a connected slave")
	}
	return &Membership{Link: d.mlink, clockOffset: d.Clock.Offset(), afhMap: d.afhMap}
}

// SuspendMembership captures the current attachment and detaches the
// radio from it: the device returns to standby with the link state left
// intact for a later ActivateMembership. Unlike Detach or DropLink
// nothing is torn down and no callbacks fire — the piconet's master
// simply stops hearing the device until it comes back.
func (d *Device) SuspendMembership() *Membership {
	m := d.CaptureMembership()
	d.mlink = nil
	d.Clock.DropSync()
	d.afhMap = nil
	d.setState(StateStandby)
	d.rxOffForce()
	return m
}

// ActivateMembership points the radio at m's piconet: the clock offset,
// AFH map and master link are restored and the slave listen loop
// restarts under m's hop sequence. A reception still in flight from the
// previously active piconet is abandoned (the retune semantics of
// channel.Radio.Tune: a bridge leaving at a presence-window boundary drops
// whatever was mid-air), and every listen window scheduled for the old
// membership dies with the state generation bump. Valid from standby
// (after SuspendMembership) or from connection state (switching
// directly between memberships); the device must not own a piconet.
//
// The caller is responsible for keeping each absence shorter than the
// link supervision timeout — the presence scheduler of a scatternet
// bridge does so by construction.
func (d *Device) ActivateMembership(m *Membership) {
	if d.isMaster {
		panic("baseband: a piconet master cannot activate memberships")
	}
	if d.state != StateConnection && d.state != StateStandby {
		panic("baseband: ActivateMembership from " + d.state.String())
	}
	if d.state == StateConnection && d.mlink == m.Link {
		return // already attached and listening there
	}
	d.rxOffForce() // abandon any packet mid-air in the old piconet
	d.Clock.SetOffset(m.clockOffset)
	d.afhMap = m.afhMap
	d.mlink = m.Link
	d.Counters.MembershipSwitches++
	d.startSlaveLoop()
}
