package hierarchy

import (
	"testing"

	"morphcache/internal/mem"
	"morphcache/internal/rng"
	"morphcache/internal/topology"
)

func TestPresenceIndexBasics(t *testing.T) {
	p := NewPresenceIndex(64)
	a := mem.GlobalLine{ASID: 1, Line: 100}
	b := mem.GlobalLine{ASID: 2, Line: 100} // same line, different space

	if p.Get(a) != 0 {
		t.Fatal("empty index reports a line present")
	}
	p.Or(a, 1<<0)
	p.Or(a, 1<<3)
	p.Or(b, 1<<1)
	if got := p.Get(a); got != 1<<0|1<<3 {
		t.Fatalf("mask %#x, want %#x", got, 1<<0|1<<3)
	}
	if got := p.Get(b); got != 1<<1 {
		t.Fatalf("ASIDs not distinguished: mask %#x", got)
	}
	if p.Len() != 2 {
		t.Fatalf("Len %d, want 2", p.Len())
	}
	p.Clear(a, 1<<0)
	if got := p.Get(a); got != 1<<3 {
		t.Fatalf("after partial clear mask %#x, want %#x", got, 1<<3)
	}
	p.Clear(a, 1<<3)
	if p.Get(a) != 0 || p.Len() != 1 {
		t.Fatal("clearing the last bit must delete the key")
	}
	p.Clear(a, 1<<5) // absent key: no-op
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPresenceIndexOverflowPanics(t *testing.T) {
	p := NewPresenceIndex(4)
	for i := 0; i < 4; i++ {
		p.Or(mem.GlobalLine{ASID: 1, Line: mem.Line(i)}, 1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inserting beyond capacity must panic")
		}
	}()
	p.Or(mem.GlobalLine{ASID: 1, Line: 99}, 1)
}

// TestPresenceIndexChurn drives randomized or/clear/share traffic against
// reference maps, exercising the backward-shift deletion paths (which must
// move a key's sharer mask with it), and verifies the answers and the
// structural invariants after every phase.
func TestPresenceIndexChurn(t *testing.T) {
	const keys = 512
	p := NewPresenceIndex(keys)
	p.TrackSharers()
	ref := make(map[mem.GlobalLine]uint32)
	refSharers := make(map[mem.GlobalLine]uint32)
	r := rng.New(11)
	gl := func() mem.GlobalLine {
		// A small keyspace with strided lines forces dense probe chains.
		return mem.GlobalLine{ASID: mem.ASID(1 + r.Intn(3)), Line: mem.Line(r.Intn(keys/4) * 16)}
	}
	for round := 0; round < 200; round++ {
		for op := 0; op < 64; op++ {
			k := gl()
			bit := uint32(1) << uint(r.Intn(8))
			switch r.Intn(4) {
			case 0:
				owners, sharers := p.Clear(k, bit)
				if sharers != refSharers[k] {
					t.Fatalf("round %d: Clear(%+v) sharers %#x, want %#x", round, k, sharers, refSharers[k])
				}
				if v := ref[k] &^ bit; v == 0 {
					delete(ref, k)
					delete(refSharers, k)
				} else {
					ref[k] = v
				}
				if owners != ref[k] {
					t.Fatalf("round %d: Clear(%+v) left %#x, want %#x", round, k, owners, ref[k])
				}
			case 1:
				p.Share(k, bit)
				if ref[k] != 0 {
					refSharers[k] |= bit
				}
			default:
				if len(ref) < keys || ref[k] != 0 {
					p.Or(k, bit)
					ref[k] |= bit
				}
			}
		}
		if err := p.Check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if p.Len() != len(ref) {
			t.Fatalf("round %d: Len %d, reference %d", round, p.Len(), len(ref))
		}
		for k, v := range ref {
			if got, sharers := p.GetSharers(k); got != v || sharers != refSharers[k] || p.Get(k) != v {
				t.Fatalf("round %d: %+v owners %#x sharers %#x, want %#x and %#x", round, k, got, sharers, v, refSharers[k])
			}
		}
	}
}

// dupTopo merges slices 0 and 1 at both levels, leaving 2 and 3 private.
func dupTopo(t *testing.T) topology.Topology {
	t.Helper()
	return topology.Topology{
		L2: mustGroups(t, 4, [][]int{{0, 1}, {2}, {3}}),
		L3: mustGroups(t, 4, [][]int{{0, 1}, {2}, {3}}),
	}
}

// seedDuplicates puts a duplicate copy of the line in the L2 and L3 of both
// slice 0 and slice 1 (reads under a private topology replicate via C2C),
// then merges the two slices so the duplicates share a group.
func seedDuplicates(t *testing.T, s *System, line mem.Line, asid mem.ASID) {
	t.Helper()
	s.SetCoreASID(0, asid)
	s.SetCoreASID(1, asid)
	s.Access(0, rd(line, asid), 0)
	s.Access(1, rd(line, asid), 0)
	if err := s.SetTopology(dupTopo(t)); err != nil {
		t.Fatal(err)
	}
	gl := mem.GlobalLine{ASID: asid, Line: line}
	if s.presL2.Get(gl) != 3 || s.presL3.Get(gl) != 3 {
		t.Fatalf("duplicates not seeded: L2 %#x L3 %#x", s.presL2.Get(gl), s.presL3.Get(gl))
	}
}

// TestDirtyCreditSurvivesLazyInvalidation proves the fillL1/findInGroup
// asymmetry safe: fillL1 credits a dirty L1 eviction to the lowest-index
// duplicate while findInGroup retains the copy nearest the requester, so
// the credited copy can be the one lazy invalidation discards — but
// invalidateAt propagates the discarded copy's dirtiness to the L3 copy, so
// the writeback is never lost. This is the regression test for that
// sequence.
func TestDirtyCreditSurvivesLazyInvalidation(t *testing.T) {
	s := quiet(t, topology.AllPrivate(4), true)
	const asid, line = 7, 100
	gl := mem.GlobalLine{ASID: asid, Line: line}
	seedDuplicates(t, s, line, asid)

	// Core 1 dirties the line in its L1 (an L1 hit: the in-group L2/L3
	// duplicates are untouched and stay clean).
	s.Access(1, wr(line, asid), 0)
	for _, sl := range []int{0, 1} {
		if e := s.SliceCache(L2, sl).Entry(s.SliceCache(L2, sl).SetIndex(line), mustWay(t, s, L2, sl, gl)); e.Dirty {
			t.Fatalf("L2 slice %d dirty before the L1 eviction", sl)
		}
	}

	// Evict the dirty line from core 1's L1 by filling its set. The
	// eviction's fillL1 credit goes to the lowest-index L2 duplicate
	// (slice 0) even though core 1's surviving copy is slice 1.
	l1 := s.L1Cache(1)
	for i := 1; i <= l1.Ways(); i++ {
		s.Access(1, rd(line+mem.Line(i*l1.Sets()), asid), 0)
	}
	if l1.Lookup(asid, line) >= 0 {
		t.Fatal("line still in core 1's L1")
	}
	e0 := s.SliceCache(L2, 0).Entry(s.SliceCache(L2, 0).SetIndex(line), mustWay(t, s, L2, 0, gl))
	e1 := s.SliceCache(L2, 1).Entry(s.SliceCache(L2, 1).SetIndex(line), mustWay(t, s, L2, 1, gl))
	if !e0.Dirty || e1.Dirty {
		t.Fatalf("credit should land on the lowest-index duplicate: slice0 %v slice1 %v", e0.Dirty, e1.Dirty)
	}

	// Core 1 re-reads: findInGroup keeps slice 1 (nearest the requester)
	// and lazily invalidates the dirty slice 0 copy, whose dirtiness must
	// propagate to the L3 copy instead of vanishing.
	r := s.Access(1, rd(line, asid), 0)
	if r.Served != ByL2 || r.Remote {
		t.Fatalf("expected a local L2 hit, got %+v", r)
	}
	if mask := s.presL2.Get(gl); mask != 1<<1 {
		t.Fatalf("surviving L2 copy mask %#x, want slice 1 only", mask)
	}
	l3set := s.SliceCache(L3, 0).SetIndex(line)
	if w := s.SliceCache(L3, 0).Lookup(asid, line); w < 0 {
		t.Fatal("L3 slice 0 copy missing")
	} else if !s.SliceCache(L3, 0).Entry(l3set, w).Dirty {
		t.Fatal("dirtiness lost: the lazily invalidated dirty L2 copy must mark the L3 copy dirty")
	}
	if err := s.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func mustWay(t *testing.T, s *System, l Level, slice int, gl mem.GlobalLine) int {
	t.Helper()
	w := s.SliceCache(l, slice).Lookup(gl.ASID, gl.Line)
	if w < 0 {
		t.Fatalf("%v slice %d does not hold %+v", l, slice, gl)
	}
	return w
}

// TestFillGroupDuplicateVictimSuppression covers the merged-group eviction
// of a line that still has a duplicate in another member slice: the victim
// must not spill (that would double-insert it), its presence bit must drop
// cleanly, and its dirtiness must propagate to the surviving copy.
func TestFillGroupDuplicateVictimSuppression(t *testing.T) {
	s := quiet(t, topology.AllPrivate(4), true)
	const asid, line = 7, 100
	gl := mem.GlobalLine{ASID: asid, Line: line}
	seedDuplicates(t, s, line, asid)

	// Dirty slice 0's copy through core 0's dirty L1 eviction (the credit
	// targets the lowest-index duplicate, which here is also core 0's own
	// surviving copy).
	s.Access(0, wr(line, asid), 0)
	l1 := s.L1Cache(0)
	for i := 1; i <= l1.Ways(); i++ {
		s.Access(0, rd(line+mem.Line(i*l1.Sets()), asid), 0)
	}
	if e := s.SliceCache(L2, 0).Entry(s.SliceCache(L2, 0).SetIndex(line), mustWay(t, s, L2, 0, gl)); !e.Dirty {
		t.Fatal("setup: slice 0 L2 copy not dirty")
	}

	// Fill slice 0's L2 set with fresh lines until the dirty duplicate is
	// evicted. Its twin in slice 1 must absorb the dirtiness, and the
	// victim must not be spilled back into the group.
	l2 := s.SliceCache(L2, 0)
	evictions := l2.Ways() + 4
	for i := 1; i <= evictions; i++ {
		s.Access(0, rd(line+mem.Line(4*i*l2.Sets()), asid), 0)
	}
	if got := s.presL2.Get(gl); got != 1<<1 {
		t.Fatalf("after eviction, presence mask %#x, want only the slice 1 duplicate", got)
	}
	if w := s.SliceCache(L2, 1).Lookup(asid, line); w < 0 {
		t.Fatal("surviving duplicate missing from slice 1")
	} else if !s.SliceCache(L2, 1).Entry(s.SliceCache(L2, 1).SetIndex(line), w).Dirty {
		t.Fatal("dirtiness not propagated to the surviving duplicate")
	}
	if err := s.CheckPresence(); err != nil {
		t.Fatal(err)
	}
}

// TestFillGroupSpillMovesPresence covers the ordinary spill: a victim with
// no duplicate displaced from the requester's slice moves to another member
// slice, and the presence index must track the move exactly.
func TestFillGroupSpillMovesPresence(t *testing.T) {
	topo := topology.Topology{
		L2: mustGroups(t, 4, [][]int{{0, 1}, {2}, {3}}),
		L3: mustGroups(t, 4, [][]int{{0, 1}, {2}, {3}}),
	}
	s := quiet(t, topo, true)
	const asid = 7
	s.SetCoreASID(0, asid)
	s.SetCoreASID(1, asid)

	// Core 0 streams one L2 set's worth of lines plus one: the overflow
	// victim must spill into slice 1's free ways, not leave the level.
	l2 := s.SliceCache(L2, 0)
	n := l2.Ways() + 1
	for i := 0; i < n; i++ {
		s.Access(0, rd(mem.Line(100+i*l2.Sets()), asid), 0)
	}
	spilled := 0
	for i := 0; i < n; i++ {
		gl := mem.GlobalLine{ASID: asid, Line: mem.Line(100 + i*l2.Sets())}
		switch s.presL2.Get(gl) {
		case 1 << 0:
		case 1 << 1:
			spilled++
			if w := s.SliceCache(L2, 1).Lookup(gl.ASID, gl.Line); w < 0 {
				t.Fatalf("presence claims slice 1 holds %+v but it does not", gl)
			}
		default:
			t.Fatalf("line %+v has unexpected presence mask %#x", gl, s.presL2.Get(gl))
		}
	}
	if spilled != 1 {
		t.Fatalf("%d lines spilled to slice 1, want exactly the one overflow victim", spilled)
	}
	if err := s.CheckPresence(); err != nil {
		t.Fatal(err)
	}
}

// TestPresenceConsistencyUnderChurn runs a randomized multi-space workload
// across reconfigurations (merging, splitting, and re-merging) and verifies
// the presence indexes against the slices' actual contents — the exhaustive
// form of the access path's "present mask inconsistent" panic.
func TestPresenceConsistencyUnderChurn(t *testing.T) {
	s := quiet(t, topology.AllShared(4), true)
	for c := 0; c < 4; c++ {
		s.SetCoreASID(c, mem.ASID(1+c%2))
	}
	r := rng.New(3)
	topos := []topology.Topology{
		topology.AllShared(4),
		topology.AllPrivate(4),
		{L2: mustGroups(t, 4, [][]int{{0, 1}, {2, 3}}), L3: mustGroups(t, 4, [][]int{{0, 1}, {2, 3}})},
		{L2: mustGroups(t, 4, [][]int{{0}, {1}, {2, 3}}), L3: mustGroups(t, 4, [][]int{{0, 1}, {2, 3}})},
	}
	for phase := 0; phase < 8; phase++ {
		for i := 0; i < 6000; i++ {
			c := r.Intn(4)
			a := mem.Access{Line: mem.Line(r.Intn(2048)), ASID: mem.ASID(1 + c%2)}
			if r.Intn(4) == 0 {
				a.Kind = mem.Write
			}
			s.Access(c, a, uint64(i))
		}
		if err := s.CheckInclusion(); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		if err := s.SetTopology(topos[r.Intn(len(topos))]); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		if err := s.CheckPresence(); err != nil {
			t.Fatalf("phase %d after reconfig: %v", phase, err)
		}
		s.ResetFootprints()
	}
}
