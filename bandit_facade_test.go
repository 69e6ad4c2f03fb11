package morphcache

import (
	"strings"
	"testing"

	"morphcache/internal/fault"
	"morphcache/internal/sim"
	"morphcache/internal/telemetry"
)

// banditTestConfig is a small fast configuration for facade-level bandit
// tests: 4 cores so mixes truncate, short epochs.
func banditTestConfig() Config {
	c := LabConfig()
	c.Cores = 4
	c.Epochs = 6
	c.WarmupEpochs = 1
	c.EpochCycles = 40_000
	return c
}

func TestRunBanditFacade(t *testing.T) {
	c := banditTestConfig()
	bo := DefaultBanditConfig()
	bo.Arms = []string{"(4:1:1)", "(1:1:4)"}
	bo.WindowEpochs = 2
	c.Bandit = &bo
	res, err := RunBandit(c, Mix("MIX 01"))
	if err != nil {
		t.Fatal(err)
	}
	if res.BanditReport == nil {
		t.Fatal("bandit run must attach a BanditReport")
	}
	if len(res.EpochThroughputs) != c.Epochs {
		t.Fatalf("stitched run has %d epochs, want %d", len(res.EpochThroughputs), c.Epochs)
	}
	if got := len(res.BanditReport.Windows); got != 3 {
		t.Fatalf("%d windows for 6 epochs at W=2, want 3", got)
	}
	if res.Throughput <= 0 {
		t.Fatal("bandit run produced no throughput")
	}
	for _, w := range res.BanditReport.Windows {
		if w.Arm != "(4:1:1)" && w.Arm != "(1:1:4)" {
			t.Fatalf("window chose unknown arm %q", w.Arm)
		}
	}
}

func TestRunBanditDefaultArms(t *testing.T) {
	c := banditTestConfig()
	c.Epochs = 2
	arms := DefaultBanditArms(c)
	if len(arms) < 5 {
		t.Fatalf("default zoo too small: %v", arms)
	}
	for _, want := range []string{"morph", "pipp", "dsr"} {
		found := false
		for _, a := range arms {
			found = found || a == want
		}
		if !found {
			t.Fatalf("default zoo %v lacks %q", arms, want)
		}
	}
}

func TestValidateBanditRejections(t *testing.T) {
	base := banditTestConfig()
	bo := DefaultBanditConfig()

	c := base
	c.Bandit = &bo
	c.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.WayDisable, Level: 3, Slice: 0, Ways: 1}}}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "Faults") {
		t.Fatalf("Bandit+Faults must be rejected, got %v", err)
	}

	c = base
	c.Bandit = &bo
	sc := DefaultSampledConfig()
	c.Sampled = &sc
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "Sampled") {
		t.Fatalf("Bandit+Sampled must be rejected, got %v", err)
	}

	c = base
	bad := DefaultBanditConfig()
	bad.Strategy = "oracle"
	c.Bandit = &bad
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Fatalf("bad bandit options must fail Validate, got %v", err)
	}

	c = base
	c.Bandit = &bo
	if _, _, err := RunMorphCacheWithController(c, Mix("MIX 01")); err == nil || !strings.Contains(err.Error(), "bandit") {
		t.Fatalf("RunMorphCacheWithController must reject Bandit, got %v", err)
	}
}

func TestNonBanditEntryPointsRejectBandit(t *testing.T) {
	c := banditTestConfig()
	bo := DefaultBanditConfig()
	c.Bandit = &bo
	w := Mix("MIX 01")
	if _, err := RunStatic(c, "(4:1:1)", w); err == nil || !strings.Contains(err.Error(), "Bandit") {
		t.Fatalf("RunStatic must reject Bandit, got %v", err)
	}
	if _, err := RunMorphCache(c, w); err == nil || !strings.Contains(err.Error(), "Bandit") {
		t.Fatalf("RunMorphCache must reject Bandit, got %v", err)
	}
	if _, err := RunPIPP(c, w); err == nil || !strings.Contains(err.Error(), "Bandit") {
		t.Fatalf("RunPIPP must reject Bandit, got %v", err)
	}
	if _, err := RunDSR(c, w); err == nil || !strings.Contains(err.Error(), "Bandit") {
		t.Fatalf("RunDSR must reject Bandit, got %v", err)
	}
}

// TestArmRewardCapabilityPerPolicy pins which zoo policies can feed which
// reward modes: hierarchy-backed arms expose telemetry counters (MPKI) and
// hierarchy stats (energy); the counter-less PIPP/DSR baselines expose
// neither, so those reward modes must degrade.
func TestArmRewardCapabilityPerPolicy(t *testing.T) {
	c := banditTestConfig()
	cases := []struct {
		arm      string
		counters bool // telemetry.Snapshotter → usable for MPKI rewards
		energy   bool // *sim.HierarchyTarget → usable for energy rewards
	}{
		{"morph", true, true},
		{"morph-nodegrade", true, true},
		{"(4:1:1)", true, true},
		{"(1:1:4)", true, true},
		{"pipp", false, false},
		{"dsr", false, false},
	}
	for _, tc := range cases {
		t.Run(tc.arm, func(t *testing.T) {
			target, err := NewTarget(c.Params(), c.Morph, tc.arm)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := target.(telemetry.Snapshotter); ok != tc.counters {
				t.Fatalf("arm %q Snapshotter=%v, want %v", tc.arm, ok, tc.counters)
			}
			if _, ok := target.(*sim.HierarchyTarget); ok != tc.energy {
				t.Fatalf("arm %q HierarchyTarget=%v, want %v", tc.arm, ok, tc.energy)
			}
		})
	}
}

// A zoo containing a counter-less arm degrades MPKI/energy rewards to
// throughput with a warning instead of starving those arms with zero
// rewards.
func TestBanditRewardDegradesWithCounterlessArm(t *testing.T) {
	c := banditTestConfig()
	c.Epochs = 4
	bo := DefaultBanditConfig()
	bo.Arms = []string{"pipp", "(4:1:1)"}
	bo.Reward = "mpki"
	bo.WindowEpochs = 2
	c.Bandit = &bo
	res, err := RunBandit(c, Mix("MIX 01"))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.BanditReport
	if rep.Reward != "throughput" || rep.RewardRequested != "mpki" {
		t.Fatalf("expected degradation to throughput, got reward %q (requested %q)", rep.Reward, rep.RewardRequested)
	}
	if len(rep.Warnings) == 0 || !strings.Contains(rep.Warnings[0], "pipp") {
		t.Fatalf("warning must name the counter-less arm, got %v", rep.Warnings)
	}

	// An all-hierarchy zoo keeps the requested reward.
	bo2 := DefaultBanditConfig()
	bo2.Arms = []string{"(4:1:1)", "(1:1:4)"}
	bo2.Reward = "mpki"
	bo2.WindowEpochs = 2
	c.Bandit = &bo2
	res2, err := RunBandit(c, Mix("MIX 01"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.BanditReport.Reward != "mpki" || len(res2.BanditReport.Warnings) != 0 {
		t.Fatalf("all-hierarchy zoo must keep mpki rewards, got %q warnings %v",
			res2.BanditReport.Reward, res2.BanditReport.Warnings)
	}
}

func TestBanditSpecDispatch(t *testing.T) {
	c := banditTestConfig()
	c.Epochs = 4
	bo := DefaultBanditConfig()
	bo.Arms = []string{"(4:1:1)", "(1:1:4)"}
	c.Bandit = &bo
	results, err := RunBatch(c, []RunSpec{{Policy: "bandit", Workload: Mix("MIX 01")}}, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].BanditReport == nil {
		t.Fatal("RunSpec policy \"bandit\" must route to RunBandit")
	}
	if results[0].Policy != "bandit" {
		t.Fatalf("policy label %q, want bandit", results[0].Policy)
	}
}

// The facade-level determinism check: the same bandit config over a real
// workload yields byte-identical schedules at different worker counts (the
// run is a single job, but its sub-windows must not depend on timing).
func TestBanditFacadeDeterminism(t *testing.T) {
	c := banditTestConfig()
	c.Epochs = 4
	bo := DefaultBanditConfig()
	bo.Arms = []string{"(4:1:1)", "(1:1:4)", "dsr"}
	bo.WindowEpochs = 1
	c.Bandit = &bo
	var ref *Result
	for i := 0; i < 3; i++ {
		res, err := RunBandit(c, Mix("MIX 01"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		for w := range ref.BanditReport.Windows {
			if res.BanditReport.Windows[w] != ref.BanditReport.Windows[w] {
				t.Fatalf("rerun %d window %d differs: %+v vs %+v", i, w,
					res.BanditReport.Windows[w], ref.BanditReport.Windows[w])
			}
		}
		for e := range ref.EpochThroughputs {
			if res.EpochThroughputs[e] != ref.EpochThroughputs[e] {
				t.Fatalf("rerun %d epoch %d throughput differs", i, e)
			}
		}
	}
}
