package workload

import (
	"testing"

	"morphcache/internal/mem"
)

// sinkAccess keeps the compiler from discarding a benchmarked call's result.
var sinkAccess mem.Access

// BenchmarkGeneratorNext times one reference of a PARSEC thread (shared and
// private hot/warm regions plus the stream) on the 16x-scaled slices the
// experiments run.
func BenchmarkGeneratorNext(b *testing.B) {
	prof, err := ByName("dedup")
	if err != nil {
		b.Fatal(err)
	}
	g := NewGenerator(prof, ScaledGenConfig(16), 1, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkAccess = g.Next()
	}
}
