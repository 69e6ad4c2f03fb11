package cache

import (
	"testing"

	"morphcache/internal/mem"
)

// Layer benchmarks for the slice operations the hierarchy's access path
// calls on every reference. Each runs on a full 16-way slice, the L3 shape.

// sinkWay keeps the compiler from discarding a benchmarked call's result.
var sinkWay int

// fullSlice returns a 16-way slice of 64 sets with every way valid. Line l
// lives in set l%64; lines [0, 1024) are resident.
func fullSlice() *Slice {
	s := New(Config{SizeBytes: 64 << 10, Ways: 16, Policy: LRU})
	for l := 0; l < s.Sets()*s.Ways(); l++ {
		s.Insert(1, mem.Line(l), false)
	}
	return s
}

func BenchmarkSliceLookupHit(b *testing.B) {
	s := fullSlice()
	n := s.Sets() * s.Ways()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Lookup(1, mem.Line(i%n)) < 0 {
			b.Fatal("miss")
		}
	}
}

func BenchmarkSliceLookupMiss(b *testing.B) {
	s := fullSlice()
	n := s.Sets() * s.Ways()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Lookup(1, mem.Line(n+i%n)) >= 0 {
			b.Fatal("hit")
		}
	}
}

// BenchmarkSliceVictimWay asks for the LRU victim of full sets, cycling
// over the sets with no intervening touch — the repeated query a merged
// group's spill loop makes of its member slices.
func BenchmarkSliceVictimWay(b *testing.B) {
	s := fullSlice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkWay = s.VictimWay(mem.Line(i))
	}
}

func BenchmarkSliceVictimAge(b *testing.B) {
	s := fullSlice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, valid := s.VictimAge(mem.Line(i)); !valid {
			b.Fatal("victim of a full set is invalid")
		}
	}
}
