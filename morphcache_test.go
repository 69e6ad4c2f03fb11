package morphcache

import (
	"testing"

	"morphcache/internal/core"
	"morphcache/internal/topology"
)

// fastConfig keeps integration tests quick: 4 measured epochs.
func fastConfig() Config {
	c := LabConfig()
	c.Epochs = 4
	c.WarmupEpochs = 1
	c.EpochCycles = 200_000
	return c
}

func TestRunStaticFacade(t *testing.T) {
	r, err := RunStatic(fastConfig(), "(16:1:1)", Mix("MIX 01"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 || len(r.PerCoreIPC) != 16 || len(r.EpochThroughputs) != 4 {
		t.Fatalf("result %+v", r)
	}
	if r.Reconfigurations != 0 {
		t.Fatal("statics must not reconfigure")
	}
}

func TestRunMorphCacheFacade(t *testing.T) {
	r, ctrl, err := RunMorphCacheWithController(fastConfig(), Mix("MIX 05"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.EpochTopologies) != 4 {
		t.Fatalf("topologies %v", r.EpochTopologies)
	}
	if ctrl.Merges()+ctrl.Splits() < r.Reconfigurations {
		t.Fatal("controller counters must cover reported reconfigurations")
	}
}

func TestParsecWorkload(t *testing.T) {
	r, err := RunStatic(fastConfig(), "(1:16:1)", Parsec("dedup"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 {
		t.Fatal("no progress")
	}
}

func TestWorkloadErrors(t *testing.T) {
	if _, err := RunStatic(fastConfig(), "(16:1:1)", Parsec("gcc")); err == nil {
		t.Fatal("SPEC name under Parsec() must error")
	}
	if _, err := RunStatic(fastConfig(), "(16:1:1)", Mix("MIX 99")); err == nil {
		t.Fatal("unknown mix must error")
	}
	if _, err := RunStatic(fastConfig(), "(3:3:3)", Mix("MIX 01")); err == nil {
		t.Fatal("invalid topology spec must error")
	}
}

func TestDeterministicFacade(t *testing.T) {
	a, err := RunMorphCache(fastConfig(), Mix("MIX 02"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMorphCache(fastConfig(), Mix("MIX 02"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Reconfigurations != b.Reconfigurations {
		t.Fatalf("non-deterministic: %v/%d vs %v/%d",
			a.Throughput, a.Reconfigurations, b.Throughput, b.Reconfigurations)
	}
}

func TestPIPPAndDSRFacade(t *testing.T) {
	cfg := fastConfig()
	w := Mix("MIX 08")
	p, err := RunPIPP(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunDSR(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Throughput <= 0 || d.Throughput <= 0 {
		t.Fatal("baseline runs made no progress")
	}
}

func TestIdealOfflineFacade(t *testing.T) {
	cfg := fastConfig()
	w := Mix("MIX 01")
	var results []*Result
	for _, s := range []string{"(16:1:1)", "(1:1:16)"} {
		r, err := RunStatic(cfg, s, w)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	series, choice, mean, err := IdealOffline(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 || len(choice) != 4 || mean <= 0 {
		t.Fatalf("ideal %v %v %v", series, choice, mean)
	}
	for e := range series {
		for _, r := range results {
			if series[e] < r.EpochThroughputs[e] {
				t.Fatal("envelope below a candidate")
			}
		}
	}
}

func TestSpeedupsFacade(t *testing.T) {
	cfg := fastConfig()
	w := Mix("MIX 01")
	alone, err := SoloIPCs(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(alone) != 16 {
		t.Fatalf("%d alone IPCs", len(alone))
	}
	r, err := RunStatic(cfg, "(1:1:16)", w)
	if err != nil {
		t.Fatal(err)
	}
	ws := WeightedSpeedup(r, alone)
	fs := FairSpeedup(r, alone)
	if ws <= 0 || ws > 16 || fs <= 0 || fs > 1.5 {
		t.Fatalf("WS=%v FS=%v out of plausible range", ws, fs)
	}
	if _, err := SoloIPCs(cfg, Parsec("dedup")); err == nil {
		t.Fatal("SoloIPCs needs a mix")
	}
}

func TestStandardStatics(t *testing.T) {
	c := LabConfig()
	if len(StandardStatics(c)) < 5 {
		t.Fatal("16-core statics")
	}
	c.Cores = 8
	for _, s := range StandardStatics(c) {
		if _, err := RunStatic(fastConfig8(c), s, Mix("MIX 01")); err != nil {
			t.Fatalf("8-core static %s: %v", s, err)
		}
	}
	// Below 8 cores every spec must still parse and none may repeat.
	for _, n := range []int{1, 2, 4} {
		c.Cores = n
		seen := map[string]bool{}
		for _, s := range StandardStatics(c) {
			if _, err := topology.FromSpec(s, n); err != nil {
				t.Fatalf("%d-core static %s: %v", n, s, err)
			}
			if seen[s] {
				t.Fatalf("%d-core statics repeat %s: %v", n, s, StandardStatics(c))
			}
			seen[s] = true
		}
	}
	// So the default bandit zoo is valid at 4 cores.
	c = banditTestConfig()
	c.Epochs = 2
	if _, err := RunBandit(c, Mix("MIX 01")); err != nil {
		t.Fatalf("4-core bandit with default arms: %v", err)
	}
}

func fastConfig8(c Config) Config {
	c.Epochs = 2
	c.WarmupEpochs = 1
	c.EpochCycles = 100_000
	return c
}

func TestQoSOption(t *testing.T) {
	cfg := fastConfig()
	cfg.Morph = core.DefaultOptions()
	cfg.Morph.QoS = true
	if _, err := RunMorphCache(cfg, Mix("MIX 03")); err != nil {
		t.Fatal(err)
	}
}

// TestMorphBeatsOrMatchesPrivate is the headline sanity check: MorphCache
// starts private, so with working reconfiguration it must not lose much to
// the private static, and typically wins.
func TestMorphBeatsOrMatchesPrivate(t *testing.T) {
	cfg := LabConfig()
	cfg.Epochs = 8
	cfg.WarmupEpochs = 2
	w := Mix("MIX 05")
	private, err := RunStatic(cfg, "(1:1:16)", w)
	if err != nil {
		t.Fatal(err)
	}
	morph, err := RunMorphCache(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if morph.Throughput < 0.97*private.Throughput {
		t.Fatalf("MorphCache %.3f far below private %.3f", morph.Throughput, private.Throughput)
	}
}

func TestConfigVariants(t *testing.T) {
	p := PaperConfig()
	if p.Scale != 1 {
		t.Fatal("PaperConfig should be full scale")
	}
	if p.Params().L2SliceBytes != 256<<10 {
		t.Fatalf("full-scale L2 %d", p.Params().L2SliceBytes)
	}
	if Mix("MIX 01").String() != "MIX 01" || Parsec("dedup").String() != "dedup" {
		t.Fatal("workload String")
	}
	// Full-scale generators build (no run: too slow).
	if _, err := Mix("MIX 01").Generators(p); err != nil {
		t.Fatal(err)
	}
}
