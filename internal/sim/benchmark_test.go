package sim

import (
	"testing"

	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
)

// spreadTarget is an n-core target whose accesses cost a fixed per-core
// latency (3 to 7 cycles), so a run measures the engine's own
// per-reference work: laggard selection, the gap model and the two
// interface calls.
type spreadTarget struct{ n int }

func (t spreadTarget) Name() string              { return "spread" }
func (t spreadTarget) Cores() int                { return t.n }
func (t spreadTarget) SetCoreASID(int, mem.ASID) {}
func (t spreadTarget) EndEpoch(int) (int, bool)  { return 0, false }
func (t spreadTarget) Spec() string              { return "spread" }
func (t spreadTarget) Access(core int, _ mem.Access, _ uint64) hierarchy.AccessResult {
	return hierarchy.AccessResult{Latency: 3 + core%5}
}

// BenchmarkEngineLaggard16 runs one 20k-cycle epoch on 16 cores and
// reports the engine's cost per reference.
func BenchmarkEngineLaggard16(b *testing.B) {
	const n = 16
	srcs := make([]Source, n)
	for i := range srcs {
		srcs[i] = flatSource{}
	}
	cfg := DefaultConfig()
	cfg.EpochCycles, cfg.Epochs, cfg.WarmupEpochs = 20_000, 1, 0
	refs := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewFromSources(cfg, spreadTarget{n: n}, srcs)
		if err != nil {
			b.Fatal(err)
		}
		for _, ipc := range eng.Run().PerCoreIPC {
			refs += ipc * float64(cfg.EpochCycles) / float64(cfg.GapInstr)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/refs, "ns/ref")
}
