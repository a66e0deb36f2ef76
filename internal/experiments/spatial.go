package experiments

import "repro/internal/netspec"

// The density sweep is the experiment the spatial medium exists for:
// an office floor packed with piconets well past the global medium's
// 8-piconet ceiling. On the shared ether, aggregate goodput saturates
// as every transmission interferes with every co-channel transmission
// world-wide; with positions and a path-loss range, piconets outside
// each other's interference reach reuse the band, so per-link goodput
// levels off at the local-neighbourhood interference instead of
// collapsing with world size.

// Office-floor geometry: desks on a 10 m grid, a 12 m delivery range
// (one desk neighbourhood plus margin) and a 22 m interference reach —
// the classic "can't decode but still jams" penumbra.
const (
	DensitySpacingM      = 10
	DensityRangeM        = 12
	DensityInterferenceM = 22
)

// DensitySpec is the office-floor world at one density: SharedEther's
// `piconets` saturated single-slave piconets, placed on a spatial grid.
func DensitySpec(piconets int) netspec.Spec {
	sp := SharedEther.spec(piconets)
	sp.Placement = &netspec.Placement{
		Kind: netspec.PlaceGrid, RangeM: DensityRangeM, SpacingM: DensitySpacingM,
		InterferenceM: DensityInterferenceM,
	}
	return sp
}

// OfficeFloor is the dense-deployment world: DensitySpec at each
// count. Counts may (and should) go well past SharedEther's 8-piconet
// ceiling: 32+ piconets is the regime where spatial reuse separates
// from the shared-ether model.
var OfficeFloor = CoexWorld{
	name:       "density",
	title:      "Density: per-link goodput and collisions vs piconets on a spatial office grid (replica means)",
	spec:       DensitySpec,
	seedStride: 131,
}
