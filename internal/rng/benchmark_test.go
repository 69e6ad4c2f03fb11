package rng

import (
	"fmt"
	"testing"
)

// BenchmarkZipf draws from the workload model's two skews (hot 0.5, warm
// 0.25) over a 16K-line range, the size of a scaled benchmark's warm set.
func BenchmarkZipf(b *testing.B) {
	for _, theta := range []float64{0.5, 0.25} {
		b.Run(fmt.Sprintf("theta%.2f", theta), func(b *testing.B) {
			s := New(1)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += s.Zipf(1<<14, theta)
			}
			if sink < 0 {
				b.Fatal("negative index")
			}
		})
	}
}
