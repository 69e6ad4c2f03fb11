package hierarchy

import (
	"math/bits"

	"morphcache/internal/cache"
	"morphcache/internal/mem"
)

// AccessResult reports where an access was served and what it cost.
type AccessResult struct {
	// Latency is the total CPU cycles for the access, including the L1
	// lookup and any bus/memory time.
	Latency int
	// Served names the satisfying level: 0=L1, 1=L2, 2=L3, 3=C2C, 4=memory.
	Served ServedBy
	// Remote reports whether the serving slice was a non-local member of a
	// merged group.
	Remote bool
}

// ServedBy identifies the component that satisfied an access.
type ServedBy uint8

// Access service points.
const (
	ByL1 ServedBy = iota
	ByL2
	ByL3
	ByC2C
	ByMemory
)

func (s ServedBy) String() string {
	switch s {
	case ByL1:
		return "L1"
	case ByL2:
		return "L2"
	case ByL3:
		return "L3"
	case ByC2C:
		return "c2c"
	case ByMemory:
		return "memory"
	default:
		return "?"
	}
}

// Access simulates one memory reference by the core at CPU cycle `now`
// (used only by the optional contention model) and returns its cost.
func (s *System) Access(core int, a mem.Access, now uint64) AccessResult {
	res := s.access(core, a, now)
	cs := &s.perCore[core]
	cs.Accesses++
	cs.LatencySum += uint64(res.Latency)
	switch res.Served {
	case ByL1:
		cs.L1Hits++
	case ByL2:
		cs.L2Hits++
	case ByL3:
		cs.L3Hits++
	case ByC2C:
		cs.C2C++
	case ByMemory:
		cs.MemReads++
	}
	if s.obs != nil {
		s.obs.ObserveAccess(int(res.Served), res.Latency)
	}
	return res
}

func (s *System) access(core int, a mem.Access, now uint64) AccessResult {
	s.stats.Accesses++
	gl := a.Global()
	write := a.Kind == mem.Write
	lat := s.p.L1HitCycles

	// L1.
	if s.l1[core].Access(a.ASID, a.Line, write) >= 0 {
		s.stats.L1Hits++
		if write {
			s.writeInvalidateOthers(core, gl)
		}
		return AccessResult{Latency: lat, Served: ByL1}
	}

	// L2 group: the lookup occupies the interconnect whether it hits or
	// not. On the bus, the whole group's channel; on a crossbar, the port
	// of the slice that serves (or would have served) the request.
	l2Slice, l2Way, _ := s.findInGroup(L2, core, gl)
	servedAt := l2Slice
	if servedAt < 0 {
		servedAt = core
	}
	lat += s.interconnectWait(L2, core, servedAt, now+uint64(lat), s.p.L2ChannelCycles)
	if slice, way := l2Slice, l2Way; slice >= 0 {
		remote := slice != core
		if remote && s.p.ChargeRemote {
			lat += s.p.L2LocalCycles + s.remoteOvL2[slice]
			if s.flt.any {
				lat += s.linkExtra(L2, core, slice)
			}
			if s.p.ModelContention {
				_, ov := s.busL2.Transact(slice, now)
				if extra := int(ov) - s.p.BusTiming.OverheadCPUCycles(); extra > 0 {
					lat += extra
				}
			}
			s.stats.L2Remote++
		} else {
			lat += s.p.L2LocalCycles
			if remote {
				s.stats.L2Remote++
			} else {
				s.stats.L2Local++
			}
		}
		set := s.l2[slice].SetIndex(a.Line)
		s.l2[slice].Touch(set, way)
		s.l2[slice].Stats().Hits++
		if write {
			s.l2[slice].SetDirty(set, way)
		}
		s.markDemand(L2, core, slice, a.Line)
		if remote && s.p.ChargeRemote {
			s.migrate(L2, core, slice, a)
		}
		s.fillL1(core, a, write)
		if write {
			s.writeInvalidateOthers(core, gl)
		}
		return AccessResult{Latency: lat, Served: ByL2, Remote: remote}
	}
	s.stats.L2Misses++
	s.perCoreMisses[core]++

	// L3 group.
	l3Slice, l3Way, l3Owners := s.findInGroup(L3, core, gl)
	servedAt = l3Slice
	if servedAt < 0 {
		servedAt = core
	}
	lat += s.interconnectWait(L3, core, servedAt, now+uint64(lat), s.p.L3ChannelCycles)
	if slice, way := l3Slice, l3Way; slice >= 0 {
		remote := slice != core
		if remote && s.p.ChargeRemote {
			lat += s.p.L3LocalCycles + s.remoteOvL3[slice]
			if s.flt.any {
				lat += s.linkExtra(L3, core, slice)
			}
			if s.p.ModelContention {
				_, ov := s.busL3.Transact(slice, now)
				if extra := int(ov) - s.p.BusTiming.OverheadCPUCycles(); extra > 0 {
					lat += extra
				}
			}
			s.stats.L3Remote++
		} else {
			lat += s.p.L3LocalCycles
			if remote {
				s.stats.L3Remote++
			} else {
				s.stats.L3Local++
			}
		}
		set := s.l3[slice].SetIndex(a.Line)
		s.l3[slice].Touch(set, way)
		s.l3[slice].Stats().Hits++
		s.markDemand(L3, core, slice, a.Line)
		if remote && s.p.ChargeRemote {
			s.migrate(L3, core, slice, a)
		}
		s.fillL2(core, a, write)
		s.fillL1(core, a, write)
		if write {
			s.writeInvalidateOthers(core, gl)
		}
		return AccessResult{Latency: lat, Served: ByL3, Remote: remote}
	}
	s.stats.L3Misses++

	// Off-group: cache-to-cache transfer if any other L3 group holds the
	// line, otherwise main memory. Nothing changed the L3 index since the
	// group lookup read the line's owners.
	served := ByMemory
	if l3Owners&^s.groupSliceMask(L3, core) != 0 {
		lat += s.p.C2CCycles
		s.stats.C2C++
		served = ByC2C
	} else {
		lat += s.memWait(now + uint64(lat))
		lat += s.p.MemCycles
		s.stats.MemReads++
	}
	s.fillL3(core, a)
	s.fillL2(core, a, write)
	s.fillL1(core, a, write)
	if write {
		s.writeInvalidateOthers(core, gl)
	}
	return AccessResult{Latency: lat, Served: served}
}

// findInGroup looks the line up in every member slice of the core's group
// at the level, resolving duplicates by lazy invalidation (§2.2): the copy
// nearest the requester is retained, all others are invalidated on this
// access. Returns (-1, -1) on a group miss. owners is the mask of every
// slice of the level holding the line, as read before the invalidation.
func (s *System) findInGroup(l Level, core int, gl mem.GlobalLine) (slice, way int, owners uint32) {
	owners = s.pres(l).Get(gl)
	mask := owners & s.groupSliceMask(l, core)
	if mask == 0 {
		return -1, -1, owners
	}
	keep := -1
	if mask&(1<<uint(core)) != 0 {
		keep = core
	} else {
		keep = bits.TrailingZeros32(mask)
	}
	// Lazy invalidation of the other copies within the group.
	for m := mask &^ (1 << uint(keep)); m != 0; m &= m - 1 {
		dup := bits.TrailingZeros32(m)
		s.invalidateAt(l, dup, gl, false)
		s.stats.LazyInv++
	}
	w := s.sliceAt(l, keep).Lookup(gl.ASID, gl.Line)
	if w < 0 {
		// The present mask claimed a copy that is not there: bookkeeping bug.
		panic("hierarchy: present mask inconsistent with slice contents")
	}
	return keep, w, owners
}

func (s *System) sliceAt(l Level, i int) *cache.Slice {
	if l == L2 {
		return s.l2[i]
	}
	return s.l3[i]
}

// fillL1 installs the line in the requester's L1, adds the core to the L2
// copy's sharer mask, and credits the eviction's dirtiness to the L2 copy
// (which inclusion guarantees exists).
func (s *System) fillL1(core int, a mem.Access, write bool) {
	old := s.l1[core].Insert(a.ASID, a.Line, write)
	s.presL2.Share(a.Global(), 1<<uint(core))
	if old.Valid && old.Dirty {
		ogl := mem.GlobalLine{ASID: old.ASID, Line: old.Line}
		if mask := s.presL2.Get(ogl) & s.groupSliceMask(L2, core); mask != 0 {
			sl := bits.TrailingZeros32(mask)
			if w := s.l2[sl].Lookup(old.ASID, old.Line); w >= 0 {
				s.l2[sl].SetDirty(s.l2[sl].SetIndex(old.Line), w)
			}
		}
	}
}

// fillL2 installs the line in the requester's L2 group. Unlike L3, the L2
// fill does not mark demand: L2 demand counts realized L2-tempo reuse (two
// hits), not traffic passing through on its way to the L1.
func (s *System) fillL2(core int, a mem.Access, dirty bool) {
	s.fillGroup(L2, core, a.ASID, a.Line, dirty)
}

// fillL3 installs the line in the requester's L3 group.
func (s *System) fillL3(core int, a mem.Access) {
	slice := s.fillGroup(L3, core, a.ASID, a.Line, false)
	s.markDemand(L3, core, slice, a.Line)
}

// fillGroup places a new line in the requester's group with
// locality-preserving spill semantics: the line always lands in the
// requester's *local* slice (so a thread's hot data keeps the local hit
// latency — the slices are "closely located" to their cores, §2), and the
// displaced local victim spills to the group's least-recently-used slot in
// another member slice if it is younger than that slot's occupant.
// Group-wide, the evicted line is (approximately) the union-LRU victim, so
// a merged group still behaves as one cache of summed associativity
// (footnote 1); the spill only decides *where* the surviving lines sit.
// Spill transfers ride the memory-side segmented bus in the background and
// are not charged to the access latency. Returns the slice the new line
// landed in.
func (s *System) fillGroup(l Level, core int, asid mem.ASID, line mem.Line, dirty bool) int {
	local := s.sliceAt(l, core)
	set := local.SetIndex(line)
	gl := mem.GlobalLine{ASID: asid, Line: line}

	if w := local.FreeWay(line); w >= 0 {
		local.InsertAt(set, w, asid, line, dirty)
		s.addPresent(l, core, gl)
		return core
	}
	victim := local.InsertAt(set, local.VictimWay(line), asid, line, dirty)
	// Remove the victim's key before adding the new line's: the index is
	// sized to the level's physical line capacity, and this ordering keeps
	// its key count within that bound at every step. The keys are always
	// distinct (fillGroup runs only on a group miss), so the swap is
	// invisible.
	vgl := mem.GlobalLine{ASID: victim.ASID, Line: victim.Line}
	owners, sharers := s.pres(l).Clear(vgl, 1<<uint(core))
	s.addPresent(l, core, gl)

	// Merges leave duplicates in place until lazy invalidation resolves
	// them; if another copy of the victim survives within the group there
	// is nothing to spill (and spilling would double-insert the line into
	// one slice). Dirtiness propagates to the surviving copy.
	if mask := owners & s.groupSliceMask(l, core); mask != 0 {
		if victim.Dirty {
			dup := bits.TrailingZeros32(mask)
			dsl := s.sliceAt(l, dup)
			if w := dsl.Lookup(vgl.ASID, vgl.Line); w >= 0 {
				dsl.SetDirty(dsl.SetIndex(vgl.Line), w)
			}
		}
		return core
	}

	// Spill the displaced local victim into the group if another member has
	// a free or older slot.
	target, targetFree := s.spillTarget(l, core, set, victim.Line, victim.LastUse)
	if target < 0 {
		// The victim is the group's oldest (or the group is just this
		// slice): it leaves the level.
		s.evicted(l, core, victim, sharers)
		return core
	}
	tsl := s.sliceAt(l, target)
	old := tsl.InsertAt(set, tsl.VictimWay(victim.Line), victim.ASID, victim.Line, victim.Dirty)
	// As above: retire the displaced occupant's key before registering the
	// spilled victim's, keeping the index within its capacity bound. The
	// eviction handlers never consult the victim's own presence, so the
	// order of the two is unobservable.
	if old.Valid && !targetFree {
		s.dropEvicted(l, target, old)
	}
	s.addPresent(l, target, vgl)
	// The victim stays in the group, and so may its L1 copies: carry the
	// sharer mask over in case the clear above deleted the key.
	if sharers != 0 {
		s.presL2.Share(vgl, sharers)
	}
	return core
}

// spillTarget picks the member slice of the core's group that a victim
// displaced from set of the core's slice spills into: the lowest member
// with a free way in the set, else the member whose LRU victim is older
// than age and oldest (the lowest on ties), else -1. free reports the
// first case. It gives the answer of asking every member in ascending
// order for FreeWay, stopping at the first free one, and for VictimAge,
// but reads both from the level's rows (DESIGN.md §11): the free row
// names every member with a free way at once, and the age row holds each
// full member's victim stamp unless its slice memoises none.
func (s *System) spillTarget(l Level, core, set int, line mem.Line, age uint64) (target int, free bool) {
	others := s.groupSliceMask(l, core) &^ (1 << uint(core))
	freeRow, ageRow := s.rows(l)
	if f := freeRow[set] & others; f != 0 {
		target = bits.TrailingZeros32(f)
		if s.p.Policy == cache.SRRIP {
			// An SRRIP victim search ages the set it searches, so the
			// members ahead of the free one are still asked.
			for m := others & (1<<uint(target) - 1); m != 0; m &= m - 1 {
				s.sliceAt(l, bits.TrailingZeros32(m)).VictimAge(line)
			}
		}
		return target, true
	}
	target = -1
	row := ageRow[set*s.p.Cores : (set+1)*s.p.Cores]
	for m := others; m != 0; m &= m - 1 {
		sl := bits.TrailingZeros32(m)
		a := row[sl]
		if a == 0 {
			a, _ = s.sliceAt(l, sl).VictimAge(line)
		}
		if a < age {
			target, age = sl, a
		}
	}
	return target, false
}

// migrate promotes a line that just hit in a remote member slice into the
// requester's local slice (the displaced local victim takes the spill
// path). Repeatedly used remote data — spilled overflow coming back into
// its owner's phase, or shared lines ping-ponged between sharers — thereby
// regains the local hit latency after one remote hit, the standard
// promotion/migration discipline of reconfigurable NUCA caches. The move
// itself rides the segmented bus in the background (the requester already
// paid the bus transaction for this hit).
func (s *System) migrate(l Level, core, from int, a mem.Access) {
	if from == core {
		return
	}
	e := s.sliceAt(l, from).Invalidate(a.ASID, a.Line)
	if !e.Valid {
		return
	}
	gl := a.Global()
	_, sharers := s.pres(l).Clear(gl, 1<<uint(from))
	s.fillGroup(l, core, a.ASID, a.Line, e.Dirty)
	// The line stays in the group, and so may its L1 copies: carry the
	// sharer mask over in case the clear above deleted the key.
	if sharers != 0 {
		s.presL2.Share(gl, sharers)
	}
	s.stats.Migrations++
}

// dropEvicted clears an evicted entry's presence bit and routes it to the
// level's handler.
func (s *System) dropEvicted(l Level, slice int, e cache.Entry) {
	_, sharers := s.pres(l).Clear(mem.GlobalLine{ASID: e.ASID, Line: e.Line}, 1<<uint(slice))
	s.evicted(l, slice, e, sharers)
}

// evicted routes an eviction whose presence bit is already cleared to the
// level's handler; sharers is the L1 sharer mask the line's L2 key held.
func (s *System) evicted(l Level, slice int, e cache.Entry, sharers uint32) {
	if l == L2 {
		s.onL2Evict(slice, e, sharers)
	} else {
		s.onL3Evict(slice, e)
	}
}

// onL2Evict handles an L2 eviction: back-invalidation of L1 copies beneath
// the slice, and dirty writeback to the L3 copy under the slice's L3 group.
func (s *System) onL2Evict(slice int, e cache.Entry, sharers uint32) {
	gl := mem.GlobalLine{ASID: e.ASID, Line: e.Line}
	s.backInvalidateL1(slice, gl, sharers)
	if e.Dirty {
		if mask := s.presL3.Get(gl) & s.groupSliceMask(L3, slice); mask != 0 {
			sl := bits.TrailingZeros32(mask)
			if w := s.l3[sl].Lookup(e.ASID, e.Line); w >= 0 {
				s.l3[sl].SetDirty(s.l3[sl].SetIndex(e.Line), w)
			}
		}
	}
}

// onL3Evict handles an L3 eviction: inclusion back-invalidation of the L2
// (and transitively L1) copies beneath this L3 group, plus writeback.
func (s *System) onL3Evict(slice int, e cache.Entry) {
	gl := mem.GlobalLine{ASID: e.ASID, Line: e.Line}
	under := s.presL2.Get(gl) & s.slicesUnderL3Group(slice)
	for m := under; m != 0; m &= m - 1 {
		l2s := bits.TrailingZeros32(m)
		s.stats.BackInv++
		s.invalidateAt(L2, l2s, gl, true)
	}
	if e.Dirty {
		s.stats.Writeback++
	}
}

// slicesUnderL3Group returns the bitmask of L2 slices whose L3 group is the
// group of the given L3 slice. Because topology validity keeps each L2
// group inside one L3 group and slices are per-core at both levels, these
// are exactly the member slices of the L3 group.
func (s *System) slicesUnderL3Group(slice int) uint32 {
	return s.groupSliceMask(L3, slice)
}

// invalidateAt removes the line from one slice at the level, with all
// bookkeeping. If cascade is true, an L2 invalidation also back-invalidates
// the L1s beneath it. Dirty data is propagated: a dirty L2 copy marks the
// L3 copy dirty; a dirty L3 copy counts as a memory writeback.
func (s *System) invalidateAt(l Level, slice int, gl mem.GlobalLine, cascade bool) {
	e := s.sliceAt(l, slice).Invalidate(gl.ASID, gl.Line)
	if !e.Valid {
		return
	}
	_, sharers := s.pres(l).Clear(gl, 1<<uint(slice))
	if l == L2 {
		if cascade {
			s.backInvalidateL1(slice, gl, sharers)
		}
		if e.Dirty {
			if mask := s.presL3.Get(gl) & s.groupSliceMask(L3, slice); mask != 0 {
				sl := bits.TrailingZeros32(mask)
				if w := s.l3[sl].Lookup(gl.ASID, gl.Line); w >= 0 {
					s.l3[sl].SetDirty(s.l3[sl].SetIndex(gl.Line), w)
				}
			}
		}
	} else if e.Dirty {
		s.stats.Writeback++
	}
}

// backInvalidateL1 removes the line from the L1s of every core whose L2
// group contains the slice (only those cores can have filled their L1 from
// it under inclusion). Of those it probes only the cores in sharers, the
// line's L2 sharer mask: a core outside it holds no copy (DESIGN.md §11).
func (s *System) backInvalidateL1(slice int, gl mem.GlobalLine, sharers uint32) {
	for m := sharers & s.groupMaskL2[slice]; m != 0; m &= m - 1 {
		s.l1[bits.TrailingZeros32(m)].Invalidate(gl.ASID, gl.Line)
	}
}

// writeInvalidateOthers applies the write-invalidation coherence action: a
// write by core c removes copies of the line from all other cores' L1s and
// from L2/L3 slices outside c's groups. Split groups replicating shared
// data therefore keep paying this cost; merged groups hold one copy (§2.1).
//
// Only the L1s that can hold the line are probed: those of the cores in
// the line's L2 sharer mask, a superset of its L1 holders, minus the
// writer (DESIGN.md §11).
func (s *System) writeInvalidateOthers(core int, gl mem.GlobalLine) {
	l2, sharers := s.presL2.GetSharers(gl)
	for m := sharers &^ (1 << uint(core)); m != 0; m &= m - 1 {
		if e := s.l1[bits.TrailingZeros32(m)].Invalidate(gl.ASID, gl.Line); e.Valid {
			s.stats.CoherenceInv++
		}
	}
	for m := l2 &^ s.groupSliceMask(L2, core); m != 0; m &= m - 1 {
		sl := bits.TrailingZeros32(m)
		s.stats.CoherenceInv++
		s.invalidateAt(L2, sl, gl, true)
	}
	for m := s.presL3.Get(gl) &^ s.groupSliceMask(L3, core); m != 0; m &= m - 1 {
		sl := bits.TrailingZeros32(m)
		s.stats.CoherenceInv++
		s.invalidateAt(L3, sl, gl, false)
	}
}

func (s *System) addPresent(l Level, slice int, gl mem.GlobalLine) {
	s.pres(l).Or(gl, 1<<uint(slice))
}

// interconnectWait charges one transaction on the level's interconnect,
// returning the queueing delay suffered (see the *ChannelCycles
// parameters). Bus mode serializes per slice group; crossbar mode
// serializes per serving slice port.
func (s *System) interconnectWait(l Level, core, serveSlice int, now uint64, service float64) int {
	if service == 0 {
		return 0
	}
	var busy []float64
	var idx int
	if s.p.Interconnect == Crossbar {
		if l == L2 {
			busy = s.portBusyL2
		} else {
			busy = s.portBusyL3
		}
		idx = serveSlice
	} else {
		if l == L2 {
			busy, idx = s.chanBusyL2, s.groupOfL2[core]
		} else {
			busy, idx = s.chanBusyL3, s.groupOfL3[core]
		}
	}
	start := float64(now)
	if busy[idx] > start {
		start = busy[idx]
	}
	busy[idx] = start + service
	wait := int(start - float64(now))
	if l == L2 {
		s.stats.L2BusTransactions++
		s.stats.L2BusWaitCycles += uint64(wait)
	} else {
		s.stats.L3BusTransactions++
		s.stats.L3BusWaitCycles += uint64(wait)
	}
	return wait
}

// memWait charges one transaction on the shared memory channel (whose
// service time a MemDerate fault can stretch).
func (s *System) memWait(now uint64) int {
	wait, charged := s.memChan.Wait(now)
	if !charged {
		return 0
	}
	s.stats.MemTransactions++
	s.stats.MemWaitCycles += uint64(wait)
	return wait
}
