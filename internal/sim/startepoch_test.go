package sim

import (
	"reflect"
	"testing"

	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
)

// streamCapture records the access sequence each epoch feeds the target, so
// a resumed run's stream can be compared against the full run's at the same
// absolute epoch.
type streamCapture struct {
	cur     []mem.Access
	byEpoch map[int][]mem.Access
}

func newStreamCapture() *streamCapture {
	return &streamCapture{byEpoch: map[int][]mem.Access{}}
}

func (s *streamCapture) Name() string              { return "capture" }
func (s *streamCapture) Cores() int                { return 1 }
func (s *streamCapture) SetCoreASID(int, mem.ASID) {}
func (s *streamCapture) Spec() string              { return "(1:1:1)" }
func (s *streamCapture) Access(_ int, a mem.Access, _ uint64) hierarchy.AccessResult {
	s.cur = append(s.cur, a)
	return hierarchy.AccessResult{Latency: 1}
}
func (s *streamCapture) EndEpoch(e int) (int, bool) {
	s.byEpoch[e] = s.cur
	s.cur = nil
	return 0, false
}

// workloadStreamLen mirrors internal/workload's streaming-region size (2 Mi
// lines): the one generator state that persists across epochs is the
// streaming cursor, so resumed streaming accesses are the full run's shifted
// by a constant offset modulo this length.
const workloadStreamLen = 0x0020_0000

// TestStartEpochResumesStream is the soundness check behind sampled
// simulation: an engine resumed at absolute epoch r must drive the target
// with the reference stream the full run produced at epoch r — identical in
// length, access kinds, and every non-streaming line, with streaming lines
// offset by one constant cursor shift (the documented approximation).
func TestStartEpochResumesStream(t *testing.T) {
	cfg := Config{EpochCycles: 20_000, Epochs: 4, GapInstr: 8, IssueWidth: 4, Seed: 7}
	gens := func() []Source { return FromGenerators(testGens(t, "MIX 03", 1)) }

	full := newStreamCapture()
	eng, err := NewFromSources(cfg, full, gens())
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	rcfg := cfg
	rcfg.StartEpoch = 2
	rcfg.Epochs = 2
	resumed := newStreamCapture()
	eng, err = NewFromSources(rcfg, resumed, gens())
	if err != nil {
		t.Fatal(err)
	}
	run := eng.Run()

	f2, r2 := full.byEpoch[2], resumed.byEpoch[2]
	// The full run may enter epoch 2 with a reference still in flight from
	// epoch 1 (cycle debt), costing it at most one trailing reference versus
	// the cleanly started window; both sources reseed at BeginEpoch(2), so
	// the streams align position by position regardless.
	n := len(f2)
	if len(r2) < n {
		n = len(r2)
	}
	if n == 0 || len(f2)-len(r2) > 1 || len(r2)-len(f2) > 1 {
		t.Fatalf("epoch-2 stream lengths: full %d, resumed %d", len(f2), len(r2))
	}
	shift, haveShift := uint64(0), false
	for i := 0; i < n; i++ {
		if f2[i].Kind != r2[i].Kind || f2[i].ASID != r2[i].ASID {
			t.Fatalf("ref %d: kind/ASID diverged (%+v vs %+v)", i, f2[i], r2[i])
		}
		if f2[i].Line == r2[i].Line {
			continue
		}
		d := (uint64(f2[i].Line) + workloadStreamLen - uint64(r2[i].Line)) % workloadStreamLen
		if !haveShift {
			shift, haveShift = d, true
		} else if d != shift {
			t.Fatalf("ref %d: line delta %d is not the constant streaming shift %d", i, d, shift)
		}
	}
	if reflect.DeepEqual(full.byEpoch[0], f2) {
		t.Fatal("epochs 0 and 2 produced identical streams; the resume check is vacuous")
	}
	// Measured-epoch indexing stays window-relative: the resumed run's two
	// epochs report as indices 0 and 1.
	if len(run.Epochs) != 2 || run.Epochs[0].Index != 0 || run.Epochs[1].Index != 1 {
		t.Fatalf("resumed run epochs %+v", run.Epochs)
	}
}

func TestStartEpochWithWarmup(t *testing.T) {
	cfg := Config{EpochCycles: 10_000, Epochs: 1, WarmupEpochs: 2, StartEpoch: 3, GapInstr: 8, IssueWidth: 4, Seed: 7}
	cap := newStreamCapture()
	eng, err := NewFromSources(cfg, cap, FromGenerators(testGens(t, "MIX 01", 1)))
	if err != nil {
		t.Fatal(err)
	}
	run := eng.Run()
	// Absolute epochs 3 and 4 warm up, 5 is measured.
	for _, e := range []int{3, 4, 5} {
		if len(cap.byEpoch[e]) == 0 {
			t.Fatalf("absolute epoch %d not simulated (have %v)", e, cap.byEpoch)
		}
	}
	if len(run.Epochs) != 1 || run.Epochs[0].Index != 0 {
		t.Fatalf("measured epochs %+v", run.Epochs)
	}
}

func TestStartEpochValidation(t *testing.T) {
	cfg := testConfig()
	cfg.StartEpoch = -1
	if _, err := NewFromSources(cfg, newStreamCapture(), FromGenerators(testGens(t, "MIX 01", 1))); err == nil {
		t.Fatal("negative StartEpoch accepted")
	}
}

// TestRunWindowClampsWarmup pins RunWindow's epoch arithmetic: the warmup
// prefix is clamped at epoch 0, the measured epochs start at the absolute
// start, and every call builds a fresh target.
func TestRunWindowClampsWarmup(t *testing.T) {
	cfg := Config{EpochCycles: 10_000, Epochs: 9, WarmupEpochs: 9, GapInstr: 8, IssueWidth: 4, Seed: 7}
	srcs := func() ([]Source, error) { return FromGenerators(testGens(t, "MIX 01", 1)), nil }
	for _, tc := range []struct{ start, warmup, first int }{
		{start: 1, warmup: 3, first: 0}, // clamped: only epoch 0 precedes
		{start: 4, warmup: 2, first: 2},
		{start: 2, warmup: 0, first: 2},
	} {
		cap := newStreamCapture()
		run, target, err := RunWindow(cfg, tc.start, tc.warmup, 2, func() (Target, error) { return cap, nil }, srcs)
		if err != nil {
			t.Fatal(err)
		}
		if target != Target(cap) {
			t.Fatal("RunWindow must return the target it simulated")
		}
		for e := tc.first; e < tc.start+2; e++ {
			if len(cap.byEpoch[e]) == 0 {
				t.Fatalf("start %d warmup %d: absolute epoch %d not simulated", tc.start, tc.warmup, e)
			}
		}
		if len(cap.byEpoch) != tc.start+2-tc.first {
			t.Fatalf("start %d warmup %d: simulated epochs %d, want %d", tc.start, tc.warmup, len(cap.byEpoch), tc.start+2-tc.first)
		}
		if len(run.Epochs) != 2 {
			t.Fatalf("start %d warmup %d: %d measured epochs, want 2", tc.start, tc.warmup, len(run.Epochs))
		}
	}
}
