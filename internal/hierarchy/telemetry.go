package hierarchy

import "morphcache/internal/telemetry"

// TelemetrySnapshot implements telemetry.Snapshotter: cumulative per-core
// and interconnect counters plus the per-core active-footprint (ACFV)
// utilizations of the current interval. The engine diffs consecutive
// snapshots into per-epoch records, so it must be taken before
// ResetFootprints clears the interval's demand.
func (s *System) TelemetrySnapshot() telemetry.Snapshot {
	s.readDemand("TelemetrySnapshot")
	snap := telemetry.Snapshot{
		Cores:  make([]telemetry.CoreCounters, s.p.Cores),
		L2Util: make([]float64, s.p.Cores),
		L3Util: make([]float64, s.p.Cores),
		Bus: telemetry.BusCounters{
			L2Transactions:  s.stats.L2BusTransactions,
			L2WaitCycles:    s.stats.L2BusWaitCycles,
			L3Transactions:  s.stats.L3BusTransactions,
			L3WaitCycles:    s.stats.L3BusWaitCycles,
			MemTransactions: s.stats.MemTransactions,
			MemWaitCycles:   s.stats.MemWaitCycles,
		},
		Faults: s.FaultState(),
	}
	for c := 0; c < s.p.Cores; c++ {
		cs := s.perCore[c]
		snap.Cores[c] = telemetry.CoreCounters{
			Accesses:   cs.Accesses,
			L1Hits:     cs.L1Hits,
			L2Hits:     cs.L2Hits,
			L3Hits:     cs.L3Hits,
			C2C:        cs.C2C,
			MemReads:   cs.MemReads,
			LatencySum: cs.LatencySum,
		}
		snap.L2Util[c] = s.CoresUtilization(L2, []int{c})
		snap.L3Util[c] = s.CoresUtilization(L3, []int{c})
	}
	return snap
}
