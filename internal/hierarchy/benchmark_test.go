package hierarchy

import (
	"testing"

	"morphcache/internal/mem"
)

// Layer benchmarks for the two per-reference tables of the access path:
// the presence index (probed on every L2/L3 lookup and fill) and the
// reuse-demand table (marked on every L2/L3 hit and L3 fill).

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
