package morphcache

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"morphcache/internal/core"
	"morphcache/internal/hierarchy"
	"morphcache/internal/sim"
	"morphcache/internal/topology"
)

// TestNewTargetStartState pins the start state every route inherits from
// the one target factory: MorphCache starts all-private (§2.2) with
// remote-hit charging on; statics take the paper's idealized latencies
// (charging off); the baselines carry their own names.
func TestNewTargetStartState(t *testing.T) {
	p := banditTestConfig().Params()
	cases := []struct {
		policy, name, spec string
		charge             bool
	}{
		{"morph", "MorphCache", "(1:1:4)", true},
		{"morph-nodegrade", "MorphCache-nodegrade", "(1:1:4)", true},
		{"(4:1:1)", "(4:1:1)", "(4:1:1)", false},
		{"(1:1:4)", "(1:1:4)", "(1:1:4)", false},
		{"pipp", "PIPP", "", false},
		{"dsr", "DSR", "", false},
	}
	for _, tc := range cases {
		tgt, err := NewTarget(p, core.DefaultOptions(), tc.policy)
		if err != nil {
			t.Fatalf("%s: %v", tc.policy, err)
		}
		if tgt.Name() != tc.name || tgt.Cores() != p.Cores {
			t.Fatalf("%s: target %q with %d cores", tc.policy, tgt.Name(), tgt.Cores())
		}
		ht, ok := tgt.(*sim.HierarchyTarget)
		if tc.spec == "" {
			if ok {
				t.Fatalf("%s: baseline built as a hierarchy target", tc.policy)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: not a hierarchy target", tc.policy)
		}
		if got := ht.Spec(); got != tc.spec {
			t.Fatalf("%s: starts in %s, want %s", tc.policy, got, tc.spec)
		}
		if got := ht.Sys.Params().ChargeRemote; got != tc.charge {
			t.Fatalf("%s: ChargeRemote %v, want %v", tc.policy, got, tc.charge)
		}
	}
}

// An unknown name is an unknown policy on every route, never a topology
// parse error; RunStatic accepts only topologies.
func TestUnknownPolicy(t *testing.T) {
	c := banditTestConfig()
	w := Mix("MIX 01")
	if _, err := NewTarget(c.Params(), c.Morph, "bogus"); err == nil || !strings.Contains(err.Error(), `unknown policy "bogus"`) {
		t.Fatalf("NewTarget: %v", err)
	}
	if _, err := RunBatch(c, []RunSpec{{Policy: "bogus", Workload: w}}, BatchOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), `unknown policy "bogus"`) {
		t.Fatalf("RunSpec: %v", err)
	}
	for _, name := range []string{"pipp", "dsr", "morph", "bandit", "bogus"} {
		if _, err := RunStatic(c, name, w); err == nil || !strings.Contains(err.Error(), "topology") {
			t.Fatalf("RunStatic(%q) must be rejected, got %v", name, err)
		}
	}
	if _, err := NewTarget(c.Params(), c.Morph, "(3:3:3)"); err == nil {
		t.Fatal("a topology for the wrong core count must be rejected")
	}
}

// A bandit run cannot honor Config.Sampled, whether or not Config.Bandit is
// set, on either entry point.
func TestBanditRejectsSampled(t *testing.T) {
	c := banditTestConfig()
	so := DefaultSampledConfig()
	c.Sampled = &so
	w := Mix("MIX 01")
	if _, err := RunBandit(c, w); err == nil || !strings.Contains(err.Error(), "Sampled") {
		t.Fatalf("RunBandit with Sampled: %v", err)
	}
	if _, err := RunBatch(c, []RunSpec{{Policy: "bandit", Workload: w}}, BatchOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "Sampled") {
		t.Fatalf("RunSpec bandit with Sampled: %v", err)
	}
	bo := DefaultBanditConfig()
	c.Bandit = &bo
	if _, err := RunBandit(c, w); err == nil || !strings.Contains(err.Error(), "Sampled") {
		t.Fatalf("RunBandit with Bandit and Sampled: %v", err)
	}
}

// TestWindowRoutesMatchFullRun pins "one factory, one window runner": a
// window that covers a whole run replays exactly what the full run
// simulates. A single-arm bandit whose one window spans every measured
// epoch, and a one-phase sampled run of a one-epoch run, must both equal
// the full run bit for bit.
func TestWindowRoutesMatchFullRun(t *testing.T) {
	base := banditTestConfig()
	base.Epochs, base.WarmupEpochs, base.EpochCycles = 3, 2, 200_000
	w := Mix("MIX 01")
	for _, policy := range []string{"morph", "morph-nodegrade", "pipp", "dsr", "(4:1:1)", "(2:2:1)"} {
		t.Run(policy, func(t *testing.T) {
			full, err := RunBatch(base, []RunSpec{{Policy: policy, Workload: w}}, BatchOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			bc := base
			bo := DefaultBanditConfig()
			bo.Arms = []string{policy}
			bo.WindowEpochs = bc.Epochs
			bo.WindowWarmup = bc.WarmupEpochs
			bc.Bandit = &bo
			bres, err := RunBandit(bc, w)
			if err != nil {
				t.Fatal(err)
			}
			if policy == "morph" && full[0].Reconfigurations == 0 {
				t.Fatal("the morph run never reconfigures; the check would be vacuous")
			}
			sameRun(t, "bandit", full[0], bres)

			oc := base
			oc.Epochs = 1
			one, err := RunBatch(oc, []RunSpec{{Policy: policy, Workload: w}}, BatchOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			sc := oc
			so := DefaultSampledConfig()
			so.MaxPhases = 1
			so.WindowWarmup = oc.WarmupEpochs
			sc.Sampled = &so
			sres, err := RunBatch(sc, []RunSpec{{Policy: policy, Workload: w}}, BatchOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, "sampled", one[0], sres[0])
		})
	}
}

func sameRun(t *testing.T, route string, full, got *Result) {
	t.Helper()
	if len(got.EpochThroughputs) != len(full.EpochThroughputs) {
		t.Fatalf("%s: %d epochs, full run %d", route, len(got.EpochThroughputs), len(full.EpochThroughputs))
	}
	for e, v := range full.EpochThroughputs {
		if math.Float64bits(got.EpochThroughputs[e]) != math.Float64bits(v) {
			t.Fatalf("%s: epoch %d throughput %v, full run %v", route, e, got.EpochThroughputs[e], v)
		}
		if got.EpochTopologies[e] != full.EpochTopologies[e] {
			t.Fatalf("%s: epoch %d topology %s, full run %s", route, e, got.EpochTopologies[e], full.EpochTopologies[e])
		}
	}
	if got.Reconfigurations != full.Reconfigurations {
		t.Fatalf("%s: %d reconfigurations, full run %d", route, got.Reconfigurations, full.Reconfigurations)
	}
}

// TestStaticDemandGate pins who marks reuse demand on a static topology:
// a plain full run marks none and ends as it would with marking on; a run
// with a recorder marks it, and its epoch records equal those of the same
// topology built with tracking left on.
func TestStaticDemandGate(t *testing.T) {
	c := banditTestConfig()
	w := Mix("MIX 01")
	const spec = "(2:2:1)"
	tracked := func() *sim.HierarchyTarget {
		p := c.Params()
		p.ChargeRemote = false
		topo, err := topology.FromSpec(spec, p.Cores)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := hierarchy.New(p, topo)
		if err != nil {
			t.Fatal(err)
		}
		return &sim.HierarchyTarget{Sys: sys, Policy: sim.NopPolicy{Label: spec}}
	}
	gated := func() *sim.HierarchyTarget {
		tgt, err := NewTarget(c.Params(), c.Morph, spec)
		if err != nil {
			t.Fatal(err)
		}
		return tgt.(*sim.HierarchyTarget)
	}
	runOn := func(c Config, tgt *sim.HierarchyTarget) *Result {
		res, err := runFull(c, tgt, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain, ref := gated(), tracked()
	got, want := runOn(c, plain), runOn(c, ref)
	if n := plain.Sys.DemandTables(); n != 0 {
		t.Fatalf("static full run marked demand in %d tables", n)
	}
	if ref.Sys.DemandTables() == 0 {
		t.Fatal("tracked run marked no demand")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("marking changed the run: %+v vs %+v", got, want)
	}

	c.Telemetry = true
	recorded := gated()
	got, want = runOn(c, recorded), runOn(c, tracked())
	if recorded.Sys.DemandTables() == 0 {
		t.Fatal("recorder did not turn demand tracking on")
	}
	util := 0.0
	for _, e := range want.Telemetry.Epochs {
		for _, ce := range e.Cores {
			util += ce.L2Util + ce.L3Util
		}
	}
	if util == 0 {
		t.Fatal("reference records carry no footprint")
	}
	if !reflect.DeepEqual(got.Telemetry, want.Telemetry) {
		t.Fatal("epoch records of the gated target differ from the tracked one")
	}
}
