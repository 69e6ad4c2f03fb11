package core

import (
	"testing"

	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/topology"
)

// frozenMachine serves a warmed hierarchy's interval signals unchanged and
// keeps the topology the controller sets to itself, so every EndEpoch
// decides on the same snapshot.
type frozenMachine struct {
	*hierarchy.System
	topo topology.Topology
}

func (m *frozenMachine) Topology() topology.Topology { return m.topo }

func (m *frozenMachine) SetTopology(t topology.Topology) error {
	m.topo = t
	return nil
}

// BenchmarkControllerEndEpoch times one MorphCache decision from the
// all-private topology over a frozen 16-core ACFV snapshot: four address
// spaces of four cores each, whose cores overflow, idle, fit and
// overflow their L3 slices in turn, so both merges and refusals occur.
func BenchmarkControllerEndEpoch(b *testing.B) {
	const cores = 16
	p := hierarchy.ScaledDefault(cores, 16)
	p.ChargeRemote = true
	p.L2ChannelCycles, p.L3ChannelCycles, p.MemChannelCycles = 0, 0, 0
	s, err := hierarchy.New(p, topology.AllPrivate(cores))
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < cores; c++ {
		s.SetCoreASID(c, mem.ASID(c/4+1))
	}
	for c := 0; c < cores; c++ {
		plantL3(s, c, []float64{1.5, 0.1, 0.6, 1.2}[c%4])
	}
	start := s.Topology()
	m := &frozenMachine{System: s, topo: start}
	ctrl := New(DefaultOptions())
	if n, _ := ctrl.EndEpoch(0, m); n == 0 {
		b.Fatal("the snapshot triggers no reconfiguration")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.topo = start
		ctrl.EndEpoch(i, m)
	}
}
