package hierarchy

import (
	"fmt"

	"morphcache/internal/cache"
	"morphcache/internal/mem"
	"morphcache/internal/topology"
)

// SetTopology reconfigures the hierarchy to a new topology at an epoch
// boundary. Merging needs no data movement — duplicates are resolved lazily
// on first access (§2.2). Shrinking a group can strand lines outside the
// inclusion envelope (an L1 line whose L2 copy left the core's group, or an
// L2 line whose L3 copy left the slice's L3 group); those are
// conservatively invalidated here, which is the simulator's analogue of the
// correctness rules in §2.2–2.3.
func (s *System) SetTopology(topo topology.Topology) error {
	return s.applyTopology(topo, false)
}

func (s *System) applyTopology(topo topology.Topology, initial bool) error {
	if topo.L2.N() != s.p.Cores || topo.L3.N() != s.p.Cores {
		return fmt.Errorf("hierarchy: topology over %d/%d slices, want %d", topo.L2.N(), topo.L3.N(), s.p.Cores)
	}
	if err := topo.Validate(); err != nil {
		return err
	}
	s.topo = topo
	s.computeRemoteOverheads()
	s.computeGroupMasks()
	s.chanBusyL2 = resetChan(s.chanStoreL2, topo.L2.NumGroups())
	s.chanBusyL3 = resetChan(s.chanStoreL3, topo.L3.NumGroups())
	if topo.L2.IsBuddyGrouping() {
		if err := s.busL2.Configure(topo.L2); err != nil {
			return err
		}
	}
	if topo.L3.IsBuddyGrouping() {
		if err := s.busL3.Configure(topo.L3); err != nil {
			return err
		}
	}
	if !initial {
		s.enforceInclusion()
	}
	return nil
}

// computeRemoteOverheads derives each slice's merged-access bus overhead.
// For contiguous groups this is the uniform segmented-bus overhead (15 CPU
// cycles by default). For the §5.5 non-neighbor extension, the group's
// logical traffic rides a physical fabric spanning all slices between its
// extremes, so the overhead scales with span/size — the model behind the
// paper's observed 7.1% degradation when non-neighbor sharing is allowed.
func (s *System) computeRemoteOverheads() {
	base := s.p.BusTiming.OverheadCPUCycles()
	fill := func(g topology.Grouping, out []int) {
		for gi := 0; gi < g.NumGroups(); gi++ {
			m := g.Members(gi)
			size := len(m)
			span := m[len(m)-1] - m[0] + 1
			ov := base
			if span > size {
				ov = (base*span + size - 1) / size
			}
			for _, sl := range m {
				out[sl] = ov
			}
		}
	}
	fill(s.topo.L2, s.remoteOvL2)
	fill(s.topo.L3, s.remoteOvL3)
}

// resetChan reslices a cores-sized backing array to the group count and
// zeroes it, so reconfigurations reuse storage instead of reallocating.
func resetChan(store []float64, groups int) []float64 {
	ch := store[:groups]
	for i := range ch {
		ch[i] = 0
	}
	return ch
}

// computeGroupMasks caches groupSliceMask and the group index of every
// slice of the current topology; the access path reads these on every
// reference.
func (s *System) computeGroupMasks() {
	fill := func(g topology.Grouping, masks []uint32, groupOf []int) {
		for gi := 0; gi < g.NumGroups(); gi++ {
			var mask uint32
			for _, sl := range g.Members(gi) {
				mask |= 1 << uint(sl)
			}
			for _, sl := range g.Members(gi) {
				masks[sl], groupOf[sl] = mask, gi
			}
		}
	}
	fill(s.topo.L2, s.groupMaskL2, s.groupOfL2)
	fill(s.topo.L3, s.groupMaskL3, s.groupOfL3)
}

// enforceInclusion removes lines that the new topology places outside their
// owner's reach: L2 lines whose L3 copy is no longer in the same L3 group,
// and L1 lines whose L2 copy is no longer in the core's L2 group.
func (s *System) enforceInclusion() {
	// L2 against L3 groups.
	for sl := 0; sl < s.p.Cores; sl++ {
		l3mask := s.groupSliceMask(L3, sl)
		stale := s.scratchGL[:0]
		s.l2[sl].ForEachValid(func(_, _ int, e cache.Entry) {
			gl := mem.GlobalLine{ASID: e.ASID, Line: e.Line}
			if s.presL3.Get(gl)&l3mask == 0 {
				stale = append(stale, gl)
			}
		})
		for _, gl := range stale {
			s.stats.InclusionInv++
			s.invalidateAt(L2, sl, gl, true)
		}
		s.scratchGL = stale[:0]
	}
	// L1 against L2 groups.
	for c := 0; c < s.p.Cores; c++ {
		l2mask := s.groupSliceMask(L2, c)
		stale := s.scratchGL[:0]
		s.l1[c].ForEachValid(func(_, _ int, e cache.Entry) {
			gl := mem.GlobalLine{ASID: e.ASID, Line: e.Line}
			if s.presL2.Get(gl)&l2mask == 0 {
				stale = append(stale, gl)
			}
		})
		for _, gl := range stale {
			s.stats.InclusionInv++
			s.l1[c].Invalidate(gl.ASID, gl.Line)
		}
		s.scratchGL = stale[:0]
	}
}

// CheckInclusion verifies the inclusion invariants exhaustively (test
// support): every valid L1 line has an L2 copy within the core's L2 group
// whose sharer mask includes the core, and every valid L2 line has an L3
// copy within its slice's L3 group. It also cross-checks the present masks
// against actual slice contents.
func (s *System) CheckInclusion() error {
	if err := s.CheckPresence(); err != nil {
		return err
	}
	// L1 ⊆ L2 group.
	for c := 0; c < s.p.Cores; c++ {
		mask := s.groupSliceMask(L2, c)
		var err error
		s.l1[c].ForEachValid(func(_, _ int, e cache.Entry) {
			gl := mem.GlobalLine{ASID: e.ASID, Line: e.Line}
			owners, sharers := s.presL2.GetSharers(gl)
			switch {
			case err != nil:
			case owners&mask == 0:
				err = fmt.Errorf("hierarchy: L1 of core %d holds %+v with no L2 copy in group", c, gl)
			case sharers&(1<<uint(c)) == 0:
				err = fmt.Errorf("hierarchy: L1 of core %d holds %+v missing from its L2 sharer mask %#x", c, gl, sharers)
			}
		})
		if err != nil {
			return err
		}
	}
	// L2 ⊆ L3 group.
	for sl := 0; sl < s.p.Cores; sl++ {
		mask := s.groupSliceMask(L3, sl)
		var err error
		s.l2[sl].ForEachValid(func(_, _ int, e cache.Entry) {
			gl := mem.GlobalLine{ASID: e.ASID, Line: e.Line}
			if err == nil && s.presL3.Get(gl)&mask == 0 {
				err = fmt.Errorf("hierarchy: L2 slice %d holds %+v with no L3 copy in group", sl, gl)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckPresence verifies the presence indexes exhaustively (test support):
// each index's structural invariants hold (probe chains intact, no duplicate
// keys, live count consistent), and its owner masks agree exactly with the
// valid lines the slices actually hold. It is the exhaustive generalization
// of the access path's "present mask inconsistent" panic.
func (s *System) CheckPresence() error {
	for l, caches := range map[Level][]*cache.Slice{L2: s.l2, L3: s.l3} {
		idx := s.pres(l)
		if err := idx.Check(); err != nil {
			return fmt.Errorf("%v index: %w", l, err)
		}
		counts := make(map[mem.GlobalLine]uint32)
		for i, c := range caches {
			c.ForEachValid(func(_, _ int, e cache.Entry) {
				counts[mem.GlobalLine{ASID: e.ASID, Line: e.Line}] |= 1 << uint(i)
			})
		}
		if len(counts) != idx.Len() {
			return fmt.Errorf("hierarchy: %v presence index has %d lines, slices hold %d", l, idx.Len(), len(counts))
		}
		for gl, mask := range counts {
			if got := idx.Get(gl); got != mask {
				return fmt.Errorf("hierarchy: %v present mask %#x != contents %#x for %+v", l, got, mask, gl)
			}
		}
	}
	return nil
}
