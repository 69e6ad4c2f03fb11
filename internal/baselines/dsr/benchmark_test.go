package dsr

import (
	"testing"

	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/rng"
)

// BenchmarkDSRAccess runs the 16-core DSR hierarchy on a fixed stream of
// Zipf-distributed lines, one address space per core with a footprint
// twice its share of the L3 and one write in five, warmed by one pass.
func BenchmarkDSRAccess(b *testing.B) {
	const cores, n = 16, 1 << 16
	p := hierarchy.ScaledDefault(cores, 16)
	s := New(p, DefaultOptions())
	r := rng.New(3)
	footprint := 2 * p.L3SliceBytes / mem.LineSize
	stream := make([]mem.Access, n)
	for i := range stream {
		c := i % cores
		stream[i] = mem.Access{Line: mem.Line(uint64(c)<<24 | uint64(r.Zipf(footprint, 0.5))), ASID: mem.ASID(c + 1)}
		if r.Intn(5) == 0 {
			stream[i].Kind = mem.Write
		}
	}
	for c := 0; c < cores; c++ {
		s.SetCoreASID(c, mem.ASID(c+1))
	}
	for i, a := range stream {
		s.Access(i%cores, a, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(i%cores, stream[i%n], 0)
	}
}
