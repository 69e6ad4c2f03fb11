package hierarchy

import "morphcache/internal/mem"

// Footprint signals for the MorphCache controller (§2.1–2.2).
//
// The controller consumes the *reuse demand* of each (core, slice): the set
// of unique lines the core referenced at that level at least twice in the
// current interval. This refines the paper's ACF in two ways that matter in
// a trace-driven setting:
//
//   - demand, not residency: a thrashing slice (working set ≫ capacity)
//     must read as highly utilized even though each line barely stays
//     resident, otherwise merge rule (i) can never see the starvation it is
//     supposed to relieve;
//   - two-touch filter: lines referenced exactly once (streams) exert no
//     capacity *utility* — giving them cache space returns nothing — so
//     they are excluded, mirroring the paper's observation that stale,
//     unreused data must not inflate the estimate.
//
// The hardware ACFV bit-vector of §2.1 (package acfv) approximates exactly
// this kind of set; Fig. 5 of the paper — reproduced by the fig5 experiment
// — quantifies how well small vectors track the true footprint. The
// simulator hands the controller the exact set (the paper's "oracle") so
// that policy quality is studied separately from estimator fidelity.
//
// Representation: the sets used to be map[mem.Line]uint8 values rebuilt
// from scratch every interval, which made markDemand (on the access path)
// and every epoch reset allocate. They are now generation-stamped
// open-addressing tables: a slot is live only when its gen equals the
// table's current generation, so ResetFootprints is one counter bump and
// the backing arrays are reused across intervals (grown geometrically to
// the high-water footprint, then allocation-free). Iteration order over a
// table is array order — deterministic — and every consumer below reduces
// to order-independent set cardinalities anyway.

// demandHash mixes a line address into a table index (same multiplicative
// scheme as presenceHash, without the ASID term: demand sets are per-core
// and cores do not mix address spaces within an interval).
func demandHash(line mem.Line) uint64 {
	h := uint64(line) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// demandTable tracks one (core, slice) footprint: line -> touch count
// (saturating at 15). The zero value is an empty table.
type demandTable struct {
	mask  uint64
	lines []mem.Line
	cnt   []uint8
	gen   []uint32
	cur   uint32 // current generation; slots with gen != cur are empty
	n     int    // live entries in the current generation
}

// mark records one touch of the line in the current interval.
func (d *demandTable) mark(line mem.Line) {
	if d.lines == nil {
		d.grow(64)
	}
	i := demandHash(line) & d.mask
	for {
		if d.gen[i] != d.cur {
			d.lines[i], d.gen[i], d.cnt[i] = line, d.cur, 1
			d.n++
			if 4*d.n > 3*len(d.lines) {
				d.grow(2 * len(d.lines))
			}
			return
		}
		if d.lines[i] == line {
			if d.cnt[i] < 15 {
				d.cnt[i]++
			}
			return
		}
		i = (i + 1) & d.mask
	}
}

// grow rehashes the live entries into a table of the given slot count.
func (d *demandTable) grow(slots int) {
	oldLines, oldCnt, oldGen, oldCur := d.lines, d.cnt, d.gen, d.cur
	d.lines = make([]mem.Line, slots)
	d.cnt = make([]uint8, slots)
	d.gen = make([]uint32, slots)
	d.mask = uint64(slots - 1)
	d.cur = 1
	for i, g := range oldGen {
		if g != oldCur {
			continue
		}
		j := demandHash(oldLines[i]) & d.mask
		for d.gen[j] == d.cur {
			j = (j + 1) & d.mask
		}
		d.lines[j], d.gen[j], d.cnt[j] = oldLines[i], 1, oldCnt[i]
	}
}

// reset empties the table for the next interval without touching the
// backing arrays: slots stamped with older generations read as empty.
func (d *demandTable) reset() {
	if d.lines == nil {
		return
	}
	d.cur++
	if d.cur == 0 {
		// Generation counter wrapped (after 2^32 intervals): clear the
		// stamps so stale slots cannot alias the new generation.
		for i := range d.gen {
			d.gen[i] = 0
		}
		d.cur = 1
	}
	d.n = 0
}

// forEach calls fn for every line touched at least thr times this interval.
func (d *demandTable) forEach(thr uint8, fn func(mem.Line)) {
	for i, g := range d.gen {
		if g == d.cur && d.cnt[i] >= thr {
			fn(d.lines[i])
		}
	}
}

// lineSet is a reusable set of lines with the same generation-stamped
// reset: the utilization/overlap signals below build their union sets in
// two of these scratch instances owned by the System instead of allocating
// fresh maps on every controller query. The zero value is an empty set.
type lineSet struct {
	mask  uint64
	lines []mem.Line
	gen   []uint32
	cur   uint32
	n     int
}

// reset empties the set.
func (s *lineSet) reset() {
	if s.lines == nil {
		return
	}
	s.cur++
	if s.cur == 0 {
		for i := range s.gen {
			s.gen[i] = 0
		}
		s.cur = 1
	}
	s.n = 0
}

// add inserts the line (idempotent).
func (s *lineSet) add(line mem.Line) {
	if s.lines == nil {
		s.grow(64)
	}
	i := demandHash(line) & s.mask
	for {
		if s.gen[i] != s.cur {
			s.lines[i], s.gen[i] = line, s.cur
			s.n++
			if 4*s.n > 3*len(s.lines) {
				s.grow(2 * len(s.lines))
			}
			return
		}
		if s.lines[i] == line {
			return
		}
		i = (i + 1) & s.mask
	}
}

// has reports membership.
func (s *lineSet) has(line mem.Line) bool {
	if s.lines == nil {
		return false
	}
	i := demandHash(line) & s.mask
	for {
		if s.gen[i] != s.cur {
			return false
		}
		if s.lines[i] == line {
			return true
		}
		i = (i + 1) & s.mask
	}
}

// size returns the set cardinality.
func (s *lineSet) size() int { return s.n }

// forEach calls fn for every member.
func (s *lineSet) forEach(fn func(mem.Line)) {
	for i, g := range s.gen {
		if g == s.cur {
			fn(s.lines[i])
		}
	}
}

// grow rehashes the members into a table of the given slot count.
func (s *lineSet) grow(slots int) {
	oldLines, oldGen, oldCur := s.lines, s.gen, s.cur
	s.lines = make([]mem.Line, slots)
	s.gen = make([]uint32, slots)
	s.mask = uint64(slots - 1)
	s.cur = 1
	for i, g := range oldGen {
		if g != oldCur {
			continue
		}
		j := demandHash(oldLines[i]) & s.mask
		for s.gen[j] == s.cur {
			j = (j + 1) & s.mask
		}
		s.lines[j], s.gen[j] = oldLines[i], 1
	}
}

// Reuse thresholds: a line belongs to a level's demand when the core
// touched it at this level at least this many times in the interval. L2
// marks fire only on L2 hits, so the threshold selects lines whose reuse is
// actually realized at L2 tempo; L3 marks fire on L3 hits and fills (i.e.,
// accesses that missed L2), so two touches there identify L3-tempo reuse —
// including the working set of a thrashing slice, which hits nowhere but
// keeps coming back. Once-touched lines (streams) never count anywhere.
const (
	l2ReuseThreshold = 2
	l3ReuseThreshold = 2
)

func reuseThreshold(l Level) uint8 {
	if l == L2 {
		return l2ReuseThreshold
	}
	return l3ReuseThreshold
}

// SetDemandTracking turns the marking of reuse demand on the access path
// on or off. It is on from New; a policy that reads no footprint (a
// static topology's) can turn it off, and the footprint readers
// (CoresUtilization, CoresOverlap, TelemetrySnapshot) then panic rather
// than report the empty tables as zero demand. Turning it on mid-interval
// makes the interval's footprints partial.
func (s *System) SetDemandTracking(on bool) { s.trackDemand = on }

// DemandTables returns how many (level, core, slice) demand tables have
// backing storage. A table allocates on its first mark and keeps its
// storage, so 0 means no demand was ever marked (test support).
func (s *System) DemandTables() int {
	n := 0
	for _, dd := range [][][]demandTable{s.demandL2, s.demandL3} {
		for c := range dd {
			for sl := range dd[c] {
				if dd[c][sl].lines != nil {
					n++
				}
			}
		}
	}
	return n
}

// readDemand guards the footprint readers (see SetDemandTracking).
func (s *System) readDemand(reader string) {
	if !s.trackDemand {
		panic("hierarchy: " + reader + " read with demand tracking off")
	}
}

func (s *System) markDemand(l Level, core, slice int, line mem.Line) {
	if !s.trackDemand {
		return
	}
	dd := s.demandL2
	if l == L3 {
		dd = s.demandL3
	}
	dd[core][slice].mark(line)
}

// ResetFootprints clears every footprint set; called once per
// reconfiguration interval so the sets track only the current interval's
// actively used data (§2.1). The backing tables are retained (generation
// bump), so steady-state epochs allocate nothing.
func (s *System) ResetFootprints() {
	for c := 0; c < s.p.Cores; c++ {
		for sl := 0; sl < s.p.Cores; sl++ {
			s.demandL2[c][sl].reset()
			s.demandL3[c][sl].reset()
		}
	}
}

func (s *System) sliceLines(l Level) int {
	if l == L2 {
		return s.l2Lines
	}
	return s.l3Lines
}

// overlapOf returns the fraction of the smaller set's members that both
// sets contain, 0 when either set is empty.
func overlapOf(sa, sb *lineSet) float64 {
	if sa.size() == 0 || sb.size() == 0 {
		return 0
	}
	small, big := sa, sb
	if sb.size() < sa.size() {
		small, big = sb, sa
	}
	common := 0
	small.forEach(func(line mem.Line) {
		if big.has(line) {
			common++
		}
	})
	return float64(common) / float64(small.size())
}

// SlicesShareASID reports whether all listed cores run threads of one
// address space — the precondition of merge rule (ii). Cores map one-to-one
// to slices, so slice indices double as core ids.
func (s *System) SlicesShareASID(slices ...[]int) bool {
	ref := s.coreASID[slices[0][0]]
	for _, set := range slices {
		for _, c := range set {
			if s.coreASID[c] != ref {
				return false
			}
		}
	}
	return true
}

// coreReused collects one core's reused lines at a level across every slice
// its data lands in. This is the paper's per-thread ACF: "the set of unique
// cache lines referenced by that thread in that epoch" — independent of
// *where* a merged group placed the lines, which matters because the
// locality spill spreads a thread's working set across its group.
func (s *System) coreReused(l Level, core int, into *lineSet) {
	dd := s.demandL2
	if l == L3 {
		dd = s.demandL3
	}
	thr := reuseThreshold(l)
	for sl := 0; sl < s.p.Cores; sl++ {
		dd[core][sl].forEach(thr, into.add)
	}
}

// CoresUtilization returns the combined reuse demand of a set of cores
// (threads) as a fraction of len(cores) slices of capacity — the per-thread
// ACF signal the controller's merge and split rules compare against the
// MSAT bounds. Under faults, the denominator counts only usable capacity
// (disabled ways excluded), and a corrupted monitor in the set saturates
// the reading to corruptUtilization — the garbage a stuck-at-1 ACFV feeds
// an unprotected controller.
func (s *System) CoresUtilization(l Level, cores []int) float64 {
	s.readDemand("CoresUtilization")
	set := &s.scratchA
	set.reset()
	for _, c := range cores {
		s.coreReused(l, c, set)
	}
	if !s.flt.any {
		return float64(set.size()) / (float64(len(cores)) * float64(s.sliceLines(l)))
	}
	capLines, corrupt := 0, false
	for _, c := range cores {
		capLines += s.effSliceLines(l, c)
		corrupt = corrupt || s.MonitorCorrupt(c)
	}
	u := float64(set.size()) / float64(capLines)
	if corrupt && u < corruptUtilization {
		u = corruptUtilization
	}
	return u
}

// CoresOverlap returns the fraction of the smaller side's per-thread reuse
// demand that both sides reference — the data-sharing signal of merge rule
// (ii), computed per thread group. A corrupted monitor on either side reads
// full overlap (stuck-at-1 vectors intersect everywhere).
func (s *System) CoresOverlap(l Level, a, b []int) float64 {
	s.readDemand("CoresOverlap")
	if s.flt.any {
		for _, set := range [][]int{a, b} {
			for _, c := range set {
				if s.MonitorCorrupt(c) {
					return 1
				}
			}
		}
	}
	sa, sb := &s.scratchA, &s.scratchB
	sa.reset()
	sb.reset()
	for _, c := range a {
		s.coreReused(l, c, sa)
	}
	for _, c := range b {
		s.coreReused(l, c, sb)
	}
	return overlapOf(sa, sb)
}
