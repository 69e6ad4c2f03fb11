package hierarchy

import (
	"testing"

	"morphcache/internal/cache"
	"morphcache/internal/mem"
	"morphcache/internal/topology"
)

// Layer benchmarks for the two per-reference tables of the access path:
// the presence index (probed on every L2/L3 lookup and fill) and the
// reuse-demand table (marked on every L2/L3 hit and L3 fill); and for the
// two steps of a fill that involve a whole merged group: choosing the
// spill target and back-invalidating the L1s.

const benchKeys = 1 << 14

// loadedIndex returns an index filled to its key capacity, which is half
// its slot count: the load factor the hierarchy runs at when every slice
// of a level is full.
func loadedIndex() (*PresenceIndex, []mem.GlobalLine) {
	p := NewPresenceIndex(benchKeys)
	keys := make([]mem.GlobalLine, benchKeys)
	for i := range keys {
		keys[i] = mem.GlobalLine{ASID: mem.ASID(i%4 + 1), Line: mem.Line(i * 7)}
		p.Or(keys[i], 1)
	}
	return p, keys
}

func BenchmarkPresenceIndexGet(b *testing.B) {
	p, keys := loadedIndex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Get(keys[i%benchKeys]) == 0 {
			b.Fatal("absent")
		}
	}
}

// BenchmarkPresenceIndexOr adds a second owner bit to a present key.
func BenchmarkPresenceIndexOr(b *testing.B) {
	p, keys := loadedIndex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Or(keys[i%benchKeys], 2)
	}
}

// BenchmarkPresenceIndexClear removes a key (backward-shift deletion) and
// puts it back, the churn of one fill evicting one line.
func BenchmarkPresenceIndexClear(b *testing.B) {
	p, keys := loadedIndex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%benchKeys]
		p.Clear(k, 1)
		p.Or(k, 1)
	}
}

// BenchmarkDemandMark marks a 4096-line footprint, each line many times,
// in a table already grown to it (the steady state of an interval).
func BenchmarkDemandMark(b *testing.B) {
	var d demandTable
	for l := 0; l < 4096; l++ {
		d.mark(mem.Line(l * 3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.mark(mem.Line(i % 4096 * 3))
	}
}

// shared16 returns the 16-core all-shared system of BenchmarkAccessPath,
// the (16:1:1) shape of the sweep's slowest jobs, warmed by the same
// access pattern: every L2 and L3 slice is full, and lines have spilled
// and migrated among the members.
func shared16(b *testing.B) *System {
	p := ScaledDefault(16, 16)
	p.ChargeRemote = true
	s, err := New(p, topology.AllShared(16))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<17; i++ {
		c := i & 15
		s.Access(c, mem.Access{Line: mem.Line(uint64(c)<<24 | uint64(i%4096)), ASID: mem.ASID(c + 1)}, uint64(i))
	}
	return s
}

// BenchmarkFillGroupShared16 fills new lines into the L2 of a full
// 16-slice group: each fill displaces the local victim and picks its
// spill target among the 15 other members.
func BenchmarkFillGroupShared16(b *testing.B) {
	s := shared16(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i & 15
		s.fillGroup(L2, c, mem.ASID(c+1), mem.Line(uint64(c)<<40|uint64(i)), false)
	}
}

// BenchmarkBackInvalidateShared16 back-invalidates the L1 copies of the
// resident L2 lines of a full 16-slice group, as an L2 eviction does.
// After the first pass the L1s hold none of them, the common case.
func BenchmarkBackInvalidateShared16(b *testing.B) {
	s := shared16(b)
	type held struct {
		slice int
		gl    mem.GlobalLine
	}
	var lines []held
	for sl, c := range s.l2 {
		c.ForEachValid(func(_, _ int, e cache.Entry) {
			lines = append(lines, held{sl, mem.GlobalLine{ASID: e.ASID, Line: e.Line}})
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := lines[i%len(lines)]
		_, sharers := s.presL2.GetSharers(h.gl)
		s.backInvalidateL1(h.slice, h.gl, sharers)
	}
}
