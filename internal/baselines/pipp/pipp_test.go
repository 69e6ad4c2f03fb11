package pipp

import (
	"testing"

	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/rng"
	"morphcache/internal/sim"
	"morphcache/internal/workload"
)

func newLevelT() *level {
	return newLevel(4, 64, 32, DefaultOptions())
}

func TestInsertEvictsLRU(t *testing.T) {
	lv := newLevelT()
	// Fill one set completely.
	var lines []mem.Line
	for i := 0; i < 32; i++ {
		l := mem.Line(i * 64) // all map to set 0
		lines = append(lines, l)
		lv.insert(0, mem.GlobalLine{ASID: 1, Line: l}, false)
	}
	// The next insertion must evict one of the earliest, least-promoted
	// lines, not a recent one.
	v, had := lv.insert(0, mem.GlobalLine{ASID: 1, Line: 64 * 100}, false)
	if !had {
		t.Fatal("full set must evict")
	}
	if v.line == lines[len(lines)-1] {
		t.Fatal("evicted the most recent insertion")
	}
}

func TestHitAndPromotion(t *testing.T) {
	lv := newLevelT()
	r := rng.New(1)
	gl := mem.GlobalLine{ASID: 1, Line: 0}
	lv.insert(0, gl, false)
	if !lv.hit(0, gl, false, r) {
		t.Fatal("inserted line should hit")
	}
	if lv.hit(0, mem.GlobalLine{ASID: 1, Line: 999 * 64}, false, r) {
		t.Fatal("absent line should miss")
	}
	// Repeated hits climb toward MRU: after many hits the line survives 31
	// fresh insertions.
	for i := 0; i < 200; i++ {
		lv.hit(0, gl, false, r)
	}
	for i := 1; i <= 31; i++ {
		lv.insert(1, mem.GlobalLine{ASID: 2, Line: mem.Line(i * 64)}, false)
	}
	if !lv.hit(0, gl, false, r) {
		t.Fatal("well-promoted line should survive a set of insertions")
	}
}

func TestStackPosConsistency(t *testing.T) {
	lv := newLevelT()
	r := rng.New(2)
	for i := 0; i < 5000; i++ {
		line := mem.Line(r.Intn(128) * 64)
		gl := mem.GlobalLine{ASID: 1, Line: line}
		if !lv.hit(0, gl, r.Intn(4) == 0, r) {
			lv.insert(r.Intn(4), gl, false)
		}
		// Invariant: stack and pos are inverse permutations.
		st, pos := lv.stack[0], lv.pos[0]
		for idx, way := range st {
			if int(pos[way]) != idx {
				t.Fatalf("stack/pos inconsistent at step %d", i)
			}
		}
	}
}

func TestUMONStackDistances(t *testing.T) {
	m := newUMON(8)
	gl := func(i int) mem.GlobalLine { return mem.GlobalLine{ASID: 1, Line: mem.Line(i)} }
	m.access(0, gl(1))
	m.access(0, gl(2))
	m.access(0, gl(1)) // stack distance 2 -> hits[1]
	if m.hits[1] != 1 {
		t.Fatalf("hits %v, want hit at position 1", m.hits)
	}
	if m.utility(1) != 0 || m.utility(2) != 1 {
		t.Fatalf("utility(1)=%d utility(2)=%d", m.utility(1), m.utility(2))
	}
	m.decay()
	if m.hits[1] != 0 {
		t.Fatal("decay should halve counters")
	}
}

func TestRepartitionFavorsReuse(t *testing.T) {
	lv := newLevelT()
	// Core 0 shows strong reuse in the monitor; core 1 streams.
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 4; i++ {
			lv.monitor(0, mem.GlobalLine{ASID: 1, Line: mem.Line(i * 64)}, nil)
		}
	}
	for i := 0; i < 200; i++ {
		lv.monitor(1, mem.GlobalLine{ASID: 2, Line: mem.Line(i * 64)}, nil)
	}
	lv.repartition()
	if lv.alloc[0] <= lv.alloc[1] {
		t.Fatalf("reusing core should out-allocate the stream: %v", lv.alloc)
	}
	if !lv.streaming[1] {
		t.Fatal("core 1 should be flagged streaming")
	}
	total := 0
	for _, a := range lv.alloc {
		total += a
	}
	if total > lv.ways {
		t.Fatalf("allocations %v exceed ways %d", lv.alloc, lv.ways)
	}
}

func TestSystemEndToEnd(t *testing.T) {
	p := hierarchy.ScaledDefault(4, 16)
	mix, _ := workload.MixByName("MIX 01")
	mix.Benchmarks = mix.Benchmarks[:4]
	gens := workload.MixGenerators(mix, workload.ScaledGenConfig(16), 1)
	cfg := sim.DefaultConfig()
	cfg.Epochs, cfg.WarmupEpochs, cfg.EpochCycles = 3, 1, 100_000
	run, err := Run(cfg, p, gens)
	if err != nil {
		t.Fatal(err)
	}
	if run.Throughput() <= 0 {
		t.Fatal("PIPP run produced no progress")
	}
	if run.Policy != "PIPP" {
		t.Fatalf("policy %q", run.Policy)
	}
}

func TestSetDirtyAndInvalidate(t *testing.T) {
	lv := newLevelT()
	gl := mem.GlobalLine{ASID: 1, Line: 7 * 64}
	lv.insert(0, gl, false)
	if !lv.setDirty(gl) {
		t.Fatal("setDirty on present line")
	}
	lv.invalidate(gl)
	if lv.setDirty(gl) {
		t.Fatal("line should be gone after invalidate")
	}
}

// refLevel is the per-set-map, adjacent-swap level that level replaced,
// kept as the reference for TestLevelMatchesReference.
type refLevel struct {
	ways      int
	setMask   uint64
	entries   []entry
	stack     [][]uint16
	pos       [][]uint16
	lookup    []map[mem.GlobalLine]uint16
	alloc     []int
	streaming []bool
	opts      Options
}

func newRefLevel(lv *level) *refLevel {
	ref := &refLevel{
		ways: lv.ways, setMask: lv.setMask,
		entries:   make([]entry, lv.sets*lv.ways),
		alloc:     lv.alloc,
		streaming: lv.streaming,
		opts:      lv.opts,
	}
	for s := 0; s < lv.sets; s++ {
		st, pos := make([]uint16, lv.ways), make([]uint16, lv.ways)
		for w := range st {
			st[w], pos[w] = uint16(w), uint16(w)
		}
		ref.stack = append(ref.stack, st)
		ref.pos = append(ref.pos, pos)
		ref.lookup = append(ref.lookup, make(map[mem.GlobalLine]uint16))
	}
	return ref
}

func (lv *refLevel) set(gl mem.GlobalLine) int { return int(uint64(gl.Line) & lv.setMask) }

func (lv *refLevel) swap(set, i, j int) {
	st, pos := lv.stack[set], lv.pos[set]
	st[i], st[j] = st[j], st[i]
	pos[st[i]] = uint16(i)
	pos[st[j]] = uint16(j)
}

func (lv *refLevel) hit(core int, gl mem.GlobalLine, write bool, r *rng.Stream) bool {
	set := lv.set(gl)
	w, ok := lv.lookup[set][gl]
	if !ok {
		return false
	}
	e := &lv.entries[set*lv.ways+int(w)]
	if write {
		e.dirty = true
	}
	p := lv.opts.PromoteProb
	if lv.streaming[core] {
		p = lv.opts.StreamPromoteProb
	}
	if pos := int(lv.pos[set][w]); pos > 0 && r.Float64() < p {
		step := lv.ways / 32
		if step < 1 {
			step = 1
		}
		target := pos - step
		if target < 0 {
			target = 0
		}
		for pos > target {
			lv.swap(set, pos, pos-1)
			pos--
		}
	}
	return true
}

func (lv *refLevel) insert(core int, gl mem.GlobalLine, dirty bool) (victim entry, hadVictim bool) {
	set := lv.set(gl)
	st := lv.stack[set]
	w := st[lv.ways-1]
	e := &lv.entries[set*lv.ways+int(w)]
	if e.valid {
		victim, hadVictim = *e, true
		delete(lv.lookup[set], mem.GlobalLine{ASID: e.asid, Line: e.line})
	}
	*e = entry{valid: true, dirty: dirty, asid: gl.ASID, line: gl.Line, owner: uint8(core)}
	lv.lookup[set][gl] = w
	pi := lv.alloc[core] * len(lv.alloc) / 2
	if lv.streaming[core] {
		pi = 1
	}
	if pi < 1 {
		pi = 1
	}
	if pi > lv.ways {
		pi = lv.ways
	}
	target := lv.ways - pi
	for i := lv.ways - 1; i > target; i-- {
		lv.swap(set, i, i-1)
	}
	return victim, hadVictim
}

func (lv *refLevel) setDirty(gl mem.GlobalLine) bool {
	set := lv.set(gl)
	if w, ok := lv.lookup[set][gl]; ok {
		lv.entries[set*lv.ways+int(w)].dirty = true
		return true
	}
	return false
}

func (lv *refLevel) invalidate(gl mem.GlobalLine) {
	set := lv.set(gl)
	if w, ok := lv.lookup[set][gl]; ok {
		lv.entries[set*lv.ways+int(w)] = entry{}
		delete(lv.lookup[set], gl)
	}
}

// TestLevelMatchesReference drives level and refLevel with the same random
// insert/hit/setDirty/invalidate sequence, with allocations and streaming
// flags that cover every insertion depth, and requires identical results,
// stacks, positions and entries after every operation.
func TestLevelMatchesReference(t *testing.T) {
	for _, shape := range []struct{ cores, sets, ways int }{{4, 8, 32}, {16, 4, 128}} {
		lv := newLevel(shape.cores, shape.sets, shape.ways, DefaultOptions())
		ref := newRefLevel(lv) // shares alloc and streaming with lv
		r := rng.New(uint64(shape.ways))
		rl, rr := rng.New(9), rng.New(9)
		for op := 0; op < 40000; op++ {
			if op%500 == 0 {
				for c := range lv.alloc {
					lv.alloc[c] = r.Intn(2*shape.ways/shape.cores + 2)
					lv.streaming[c] = r.Intn(5) == 0
				}
			}
			core := r.Intn(shape.cores)
			gl := mem.GlobalLine{ASID: mem.ASID(1 + r.Intn(2)), Line: mem.Line(r.Intn(6 * shape.sets * shape.ways))}
			switch k := r.Intn(10); {
			case k < 6:
				write := r.Intn(4) == 0
				got, want := lv.hit(core, gl, write, rl), ref.hit(core, gl, write, rr)
				if got != want {
					t.Fatalf("op %d: hit %v, reference %v", op, got, want)
				}
				if !got {
					gv, gh := lv.insert(core, gl, write)
					wv, wh := ref.insert(core, gl, write)
					if gv != wv || gh != wh {
						t.Fatalf("op %d: insert evicted (%+v, %v), reference (%+v, %v)", op, gv, gh, wv, wh)
					}
				}
			case k < 8:
				if got, want := lv.setDirty(gl), ref.setDirty(gl); got != want {
					t.Fatalf("op %d: setDirty %v, reference %v", op, got, want)
				}
			default:
				lv.invalidate(gl)
				ref.invalidate(gl)
			}
			for set := range lv.stack {
				for i := range lv.stack[set] {
					if lv.stack[set][i] != ref.stack[set][i] || lv.pos[set][i] != ref.pos[set][i] {
						t.Fatalf("op %d set %d: stack/pos %v/%v, reference %v/%v", op, set, lv.stack[set], lv.pos[set], ref.stack[set], ref.pos[set])
					}
				}
			}
			for i := range lv.entries {
				if lv.entries[i] != ref.entries[i] {
					t.Fatalf("op %d entry %d: %+v, reference %+v", op, i, lv.entries[i], ref.entries[i])
				}
			}
		}
		if err := lv.where.Check(); err != nil {
			t.Fatal(err)
		}
	}
}
