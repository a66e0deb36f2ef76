//go:build poison

package baseband

import (
	"fmt"
	"reflect"

	"repro/internal/bits"
	"repro/internal/packet"
)

// cleanCheck is the scratch of the poison build's cross-check of the
// clean-air shortcut: an air vector and a codec of its own.
type cleanCheck struct {
	v bits.Vec
	c packet.Codec
}

// checkClean runs the bit path beside every clean-air shortcut: it
// assembles the held packet with the sender's UAP and clock, decodes
// it with the receiver's LAP, UAP and clock, and panics unless packet,
// quality report and error equal what Clean returned. It assembles
// into its own scratch, so the transmission stays unmaterialised and
// Stats.Materialized counts only the air path's own assemblies.
func (d *Device) checkClean(b *airBuf, lap uint32, uap uint8, clk uint32, p *packet.Packet, info *packet.RxInfo, err error) {
	if d.chk == nil {
		d.chk = &cleanCheck{}
	}
	k := d.chk
	k.v.Reset()
	k.c.Assemble(&k.v, b.p, b.uap, b.clk)
	wp, winfo, werr := k.c.Parse(&k.v, lap, uap, clk, d.cfg.CorrelatorThreshold)
	if werr != err || *winfo != *info || !reflect.DeepEqual(wp, p) {
		panic(fmt.Sprintf("baseband: %s: clean-air shortcut gave %+v %+v %v, the bit path %+v %+v %v",
			d.name, p, *info, err, wp, *winfo, werr))
	}
}
