// Package pipp implements the Promotion/Insertion Pseudo-Partitioning
// baseline (Xie & Loh, ISCA 2009) extended to both the L2 and L3 caches,
// which the paper compares MorphCache against in Fig. 17.
//
// PIPP manages a single shared cache at each level (the paper: "partitioning
// a single shared cache at each level"):
//
//   - Utility monitors (UMON-style sampled auxiliary tag directories, one
//     per core per level) record stack-distance hit histograms.
//   - At each interval a greedy utility-based allocation assigns each core a
//     target partition π_i of the ways.
//   - A core's incoming line is inserted at stack priority π_i (counting
//     from the LRU end); on a hit the line is promoted by a single position
//     with probability p_prom. Cores detected as streaming (negligible
//     reuse in their monitor) insert at the LRU+1 position with a low
//     promotion probability, so streams cannot pollute partitions.
//
// The combined insertion/promotion discipline yields partitioning, adaptive
// insertion, and capacity stealing with one mechanism, but is
// "topology-unaware": both levels are flat shared caches with the idealized
// static latencies, which is exactly the property the paper's comparison
// targets.
//
// The two levels are managed independently and are not inclusive (the
// extension manages "a single shared cache at each level"; cross-level
// inclusion is not part of the mechanism).
package pipp

import (
	"morphcache/internal/cache"
	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/metrics"
	"morphcache/internal/rng"
	"morphcache/internal/sim"
	"morphcache/internal/workload"
)

// Options tunes the PIPP mechanism.
type Options struct {
	// PromoteProb is the hit-promotion probability (3/4 in the PIPP paper).
	PromoteProb float64
	// StreamPromoteProb is the promotion probability for streaming cores
	// (1/128 in the PIPP paper).
	StreamPromoteProb float64
	// SampleEvery selects UMON sampled sets (every 32nd set).
	SampleEvery int
	// StreamHitRate: a core whose monitor hit rate falls below this is
	// treated as streaming.
	StreamHitRate float64
}

// DefaultOptions returns the PIPP paper's constants.
func DefaultOptions() Options {
	return Options{PromoteProb: 0.75, StreamPromoteProb: 1.0 / 128, SampleEvery: 32, StreamHitRate: 0.04}
}

// System is a two-level PIPP-managed shared hierarchy implementing
// sim.Target.
type System struct {
	cores    int
	p        hierarchy.Params
	opts     Options
	l1       []*cache.Slice
	l2, l3   *level
	coreASID []mem.ASID
	r        *rng.Stream
}

// New builds the PIPP system: one shared L2 of cores×256 KB and one shared
// L3 of cores×1 MB, each with summed associativity.
func New(p hierarchy.Params, opts Options) *System {
	s := &System{
		cores:    p.Cores,
		p:        p,
		opts:     opts,
		coreASID: make([]mem.ASID, p.Cores),
		r:        rng.New(0xD1CE),
	}
	for i := 0; i < p.Cores; i++ {
		s.l1 = append(s.l1, cache.New(cache.Config{SizeBytes: p.L1SizeBytes, Ways: p.L1Ways, Policy: cache.LRU}))
	}
	l2Sets := p.L2SliceBytes / mem.LineSize / p.L2Ways
	l3Sets := p.L3SliceBytes / mem.LineSize / p.L3Ways
	s.l2 = newLevel(p.Cores, l2Sets, p.L2Ways*p.Cores, opts)
	s.l3 = newLevel(p.Cores, l3Sets, p.L3Ways*p.Cores, opts)
	return s
}

// Name implements sim.Target.
func (s *System) Name() string { return "PIPP" }

// Cores implements sim.Target.
func (s *System) Cores() int { return s.cores }

// Spec implements sim.Target.
func (s *System) Spec() string { return "PIPP(L2+L3)" }

// SetCoreASID implements sim.Target.
func (s *System) SetCoreASID(core int, asid mem.ASID) { s.coreASID[core] = asid }

// EndEpoch implements sim.Target: recompute partitions from the monitors.
func (s *System) EndEpoch(int) (int, bool) {
	s.l2.repartition()
	s.l3.repartition()
	return 0, false
}

// Access implements sim.Target.
func (s *System) Access(core int, a mem.Access, _ uint64) hierarchy.AccessResult {
	gl := a.Global()
	write := a.Kind == mem.Write
	lat := s.p.L1HitCycles
	if s.l1[core].Access(a.ASID, a.Line, write) >= 0 {
		if write {
			s.invalidateOtherL1s(core, gl)
		}
		return hierarchy.AccessResult{Latency: lat, Served: hierarchy.ByL1}
	}

	s.l2.monitor(core, gl, s.r)
	if s.l2.hit(core, gl, write, s.r) {
		lat += s.p.L2LocalCycles
		s.fillL1(core, a, write)
		if write {
			s.invalidateOtherL1s(core, gl)
		}
		return hierarchy.AccessResult{Latency: lat, Served: hierarchy.ByL2}
	}

	s.l3.monitor(core, gl, s.r)
	if s.l3.hit(core, gl, false, s.r) {
		lat += s.p.L3LocalCycles
		s.fillLevel(s.l2, core, gl, write)
		s.fillL1(core, a, write)
		if write {
			s.invalidateOtherL1s(core, gl)
		}
		return hierarchy.AccessResult{Latency: lat, Served: hierarchy.ByL3}
	}

	lat += s.p.MemCycles
	s.fillLevel(s.l3, core, gl, false)
	s.fillLevel(s.l2, core, gl, write)
	s.fillL1(core, a, write)
	if write {
		s.invalidateOtherL1s(core, gl)
	}
	return hierarchy.AccessResult{Latency: lat, Served: hierarchy.ByMemory}
}

func (s *System) fillL1(core int, a mem.Access, write bool) {
	old := s.l1[core].Insert(a.ASID, a.Line, write)
	if old.Valid && old.Dirty {
		ogl := mem.GlobalLine{ASID: old.ASID, Line: old.Line}
		if !s.l2.setDirty(ogl) {
			s.l3.setDirty(ogl)
		}
	}
}

func (s *System) fillLevel(lv *level, core int, gl mem.GlobalLine, dirty bool) {
	victim, hadVictim := lv.insert(core, gl, dirty)
	if hadVictim && victim.dirty {
		vgl := mem.GlobalLine{ASID: victim.asid, Line: victim.line}
		if lv == s.l2 {
			s.l3.setDirty(vgl) // best effort; counts as memory writeback otherwise
		}
	}
}

func (s *System) invalidateOtherL1s(core int, gl mem.GlobalLine) {
	for c := range s.l1 {
		if c != core {
			s.l1[c].Invalidate(gl.ASID, gl.Line)
		}
	}
}

// --- one PIPP-managed shared cache -----------------------------------------

type entry struct {
	valid bool
	dirty bool
	asid  mem.ASID
	line  mem.Line
	owner uint8
}

type level struct {
	cores, sets, ways int
	setMask           uint64
	entries           []entry    // sets*ways
	stack             [][]uint16 // per set, MRU first
	pos               [][]uint16 // per set: way -> stack index
	// where maps each resident line to its way plus one, in its owner
	// word: a line is added once with Or and removed with Clear of the same
	// word. A line sits in one way of one set, so the index needs no more
	// keys than the level has lines.
	where     *hierarchy.PresenceIndex
	alloc     []int // π_i per core
	mon       []*umon
	streaming []bool
	opts      Options
}

func newLevel(cores, sets, ways int, opts Options) *level {
	// Keep at least eight sampled sets per monitor regardless of cache
	// scale, otherwise the utility histograms are too noisy to allocate on.
	if sets/opts.SampleEvery < 8 {
		opts.SampleEvery = sets / 8
		if opts.SampleEvery < 1 {
			opts.SampleEvery = 1
		}
	}
	lv := &level{
		cores: cores, sets: sets, ways: ways,
		setMask: uint64(sets - 1),
		entries: make([]entry, sets*ways),
		where:   hierarchy.NewPresenceIndex(sets * ways),
		opts:    opts,
	}
	lv.stack = make([][]uint16, sets)
	lv.pos = make([][]uint16, sets)
	for s := range lv.stack {
		lv.stack[s] = make([]uint16, ways)
		lv.pos[s] = make([]uint16, ways)
		for w := 0; w < ways; w++ {
			lv.stack[s][w] = uint16(w)
			lv.pos[s][w] = uint16(w)
		}
	}
	lv.alloc = make([]int, cores)
	lv.streaming = make([]bool, cores)
	for c := range lv.alloc {
		lv.alloc[c] = ways / cores
	}
	lv.mon = make([]*umon, cores)
	for c := range lv.mon {
		lv.mon[c] = newUMON(ways)
	}
	return lv
}

func (lv *level) set(gl mem.GlobalLine) int { return int(uint64(gl.Line) & lv.setMask) }

// hit looks the line up; on a hit it applies single-step promotion and
// returns true.
func (lv *level) hit(core int, gl mem.GlobalLine, write bool, r *rng.Stream) bool {
	w1 := lv.where.Get(gl)
	if w1 == 0 {
		return false
	}
	set, w := lv.set(gl), int(w1-1)
	e := &lv.entries[set*lv.ways+w]
	if write {
		e.dirty = true
	}
	p := lv.opts.PromoteProb
	if lv.streaming[core] {
		p = lv.opts.StreamPromoteProb
	}
	if pos := int(lv.pos[set][w]); pos > 0 && r.Float64() < p {
		// Single-step promotion in the PIPP paper's 16-way caches climbs
		// 1/16th of the stack per hit; the merged 16-core stacks here are
		// 128/256 ways deep, so the step scales with depth to keep the
		// climb rate (and thus the partitioning strength) comparable.
		step := lv.ways / 32
		if step < 1 {
			step = 1
		}
		lv.raise(set, pos, max(pos-step, 0))
	}
	return true
}

// raise moves the way at stack position from up to position to (to <=
// from), shifting the ways in between one position toward the LRU end:
// the rotation a chain of adjacent swaps from from down to to makes.
func (lv *level) raise(set, from, to int) {
	st, pos := lv.stack[set], lv.pos[set]
	w := st[from]
	copy(st[to+1:from+1], st[to:from])
	st[to] = w
	for i := to; i <= from; i++ {
		pos[st[i]] = uint16(i)
	}
}

// insert places the core's line at stack priority π_core from the LRU end,
// evicting the LRU entry. Returns the victim.
func (lv *level) insert(core int, gl mem.GlobalLine, dirty bool) (victim entry, hadVictim bool) {
	set := lv.set(gl)
	st := lv.stack[set]
	w := st[lv.ways-1] // LRU way
	e := &lv.entries[set*lv.ways+int(w)]
	if e.valid {
		victim, hadVictim = *e, true
		lv.where.Clear(mem.GlobalLine{ASID: e.asid, Line: e.line}, uint32(w)+1)
	}
	*e = entry{valid: true, dirty: dirty, asid: gl.ASID, line: gl.Line, owner: uint8(core)}
	lv.where.Or(gl, uint32(w)+1)

	// Insertion priority: the PIPP paper's π_i is the core's allocation in
	// a 16-way cache, i.e., 1/16th-granular stack depth. The merged
	// 16-core stacks here are 8-16x deeper, so π_i scales by cores/2 to
	// land at the equivalent relative depth (a core with its fair-share
	// allocation inserts mid-stack; high-utility cores insert near MRU,
	// streaming cores just above LRU), preserving the utility ordering the
	// mechanism encodes.
	pi := lv.alloc[core] * lv.cores / 2
	if lv.streaming[core] {
		pi = 1
	}
	if pi < 1 {
		pi = 1
	}
	if pi > lv.ways {
		pi = lv.ways
	}
	// Move the newly filled way from the LRU end to position ways-pi.
	lv.raise(set, lv.ways-1, lv.ways-pi)
	return victim, hadVictim
}

// setDirty marks the line dirty if present.
func (lv *level) setDirty(gl mem.GlobalLine) bool {
	if w1 := lv.where.Get(gl); w1 != 0 {
		lv.entries[lv.set(gl)*lv.ways+int(w1-1)].dirty = true
		return true
	}
	return false
}

// invalidate removes the line if present (coherence writes from DSR-style
// sharing are not modeled here: one shared cache has one copy).
func (lv *level) invalidate(gl mem.GlobalLine) {
	if w1 := lv.where.Get(gl); w1 != 0 {
		lv.entries[lv.set(gl)*lv.ways+int(w1-1)] = entry{}
		lv.where.Clear(gl, w1)
	}
}

// monitor feeds the core's UMON on sampled sets.
func (lv *level) monitor(core int, gl mem.GlobalLine, _ *rng.Stream) {
	set := lv.set(gl)
	if set%lv.opts.SampleEvery != 0 {
		return
	}
	lv.mon[core].access(set, gl)
}

// repartition runs the greedy utility allocation and refreshes stream
// detection, then decays the monitors.
func (lv *level) repartition() {
	// Stream detection: reuse rate in the monitor.
	for c, m := range lv.mon {
		total := m.accesses
		lv.streaming[c] = total > 64 && float64(m.totalHits()) < lv.opts.StreamHitRate*float64(total)
	}
	// Greedy marginal-utility allocation (UCP-style, single-way steps).
	alloc := make([]int, lv.cores)
	for c := range alloc {
		alloc[c] = 1
	}
	remaining := lv.ways - lv.cores
	for remaining > 0 {
		best, bestGain := -1, -1.0
		for c, m := range lv.mon {
			if alloc[c] >= lv.ways {
				continue
			}
			gain := float64(m.utility(alloc[c]+1) - m.utility(alloc[c]))
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			break
		}
		alloc[best]++
		remaining--
	}
	lv.alloc = alloc
	for _, m := range lv.mon {
		m.decay()
	}
}

// --- UMON: sampled auxiliary tag directory ---------------------------------

// umon is one core's utility monitor: an auxiliary tag directory over the
// sampled sets, fully associative per set with true-LRU stacks of `ways`
// entries, recording per-stack-position hit counters (the UCP UMON-DSS
// design the PIPP paper builds on).
type umon struct {
	ways     int
	stacks   map[int][]mem.GlobalLine
	hits     []uint64
	accesses uint64
}

func newUMON(ways int) *umon {
	return &umon{ways: ways, stacks: make(map[int][]mem.GlobalLine), hits: make([]uint64, ways)}
}

func (m *umon) access(set int, gl mem.GlobalLine) {
	m.accesses++
	stack := m.stacks[set]
	for i, x := range stack {
		if x == gl {
			m.hits[i]++
			copy(stack[1:i+1], stack[:i])
			stack[0] = gl
			return
		}
	}
	if len(stack) < m.ways {
		stack = append(stack, gl)
	}
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = gl
	m.stacks[set] = stack
}

func (m *umon) utility(ways int) uint64 {
	var u uint64
	for i := 0; i < ways && i < len(m.hits); i++ {
		u += m.hits[i]
	}
	return u
}

func (m *umon) totalHits() uint64 { return m.utility(m.ways) }

func (m *umon) decay() {
	for i := range m.hits {
		m.hits[i] /= 2
	}
	m.accesses /= 2
}

// Run executes a workload under PIPP with the engine defaults.
func Run(cfg sim.Config, p hierarchy.Params, gens []*workload.Generator) (*metrics.Run, error) {
	sys := New(p, DefaultOptions())
	eng, err := sim.New(cfg, sys, gens)
	if err != nil {
		return nil, err
	}
	return eng.Run(), nil
}
