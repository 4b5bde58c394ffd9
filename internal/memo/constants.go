package memo

// Synthesis results adopted from the paper's Table 5 (32 nm, Synopsys DC
// with FreePDK45 scaled down; see §6.1).  This reproduction has no RTL
// flow, so these numbers enter the model as constants: latencies gate the
// claim that no clock-frequency reduction is needed (< 0.5 ns at 2 GHz),
// energies feed the energy model, and areas feed the overhead report.
type UnitCosts struct {
	AreaMM2   float64
	EnergyPJ  float64
	LatencyNS float64
}

// Table 5 rows.
var (
	CostCRC32Unit = UnitCosts{AreaMM2: 0.0146, EnergyPJ: 2.9143, LatencyNS: 0.4133}
	CostHashReg   = UnitCosts{AreaMM2: 0.0018, EnergyPJ: 0.2634, LatencyNS: 0.1121}
	CostLUT4KB    = UnitCosts{AreaMM2: 0.0217, EnergyPJ: 3.2556, LatencyNS: 0.1768}
	CostLUT8KB    = UnitCosts{AreaMM2: 0.0364, EnergyPJ: 4.4221, LatencyNS: 0.2175}
	CostLUT16KB   = UnitCosts{AreaMM2: 0.0666, EnergyPJ: 7.2340, LatencyNS: 0.2658}
)

// HPIProcessorAreaMM2 is the McPAT 32 nm estimate for the two-core HPI
// processor against which the paper reports its 2.08% area overhead.
const HPIProcessorAreaMM2 = 7.97

// LUTCost returns the Table 5 cost row for a dedicated-SRAM LUT of the
// given size, interpolating linearly for unlisted sizes.
func LUTCost(sizeBytes int) UnitCosts {
	switch {
	case sizeBytes <= 4<<10:
		return CostLUT4KB
	case sizeBytes <= 8<<10:
		return CostLUT8KB
	default:
		return CostLUT16KB
	}
}

// AreaOverhead returns the fractional area overhead of adding one
// memoization unit per core (CRC unit + HVRs + L1 LUT) to the HPI
// processor, mirroring the paper's 2.08% figure for the 16 KB L1 LUT.
func AreaOverhead(l1SizeBytes, cores int) float64 {
	perCore := CostCRC32Unit.AreaMM2 + CostHashReg.AreaMM2 + LUTCost(l1SizeBytes).AreaMM2
	return perCore * float64(cores) / HPIProcessorAreaMM2
}
