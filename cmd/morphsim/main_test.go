package main

import (
	"strings"
	"testing"

	"morphcache/internal/core"
	"morphcache/internal/sim"
)

// TestPolicyVocabulary walks every -policy name: the target it builds, the
// controller options it runs with, and whether graceful degradation is on.
func TestPolicyVocabulary(t *testing.T) {
	def := core.DefaultOptions()
	with := func(set func(*core.Options)) core.Options {
		o := def
		set(&o)
		return o
	}
	cases := []struct {
		policy string
		name   string // target name; "MorphCache-nodegrade" means degradation off
		spec   string // starting topology of a hierarchy target ("" = PIPP/DSR)
		opts   core.Options
	}{
		{"morph", "MorphCache", "(1:1:16)", def},
		{"morph-nodegrade", "MorphCache-nodegrade", "(1:1:16)", def},
		{"morph-qos", "MorphCache", "(1:1:16)", with(func(o *core.Options) { o.QoS = true })},
		{"morph-split-aggressive", "MorphCache", "(1:1:16)", with(func(o *core.Options) { o.Conflict = core.SplitAggressive })},
		{"morph-arbitrary", "MorphCache", "(1:1:16)", with(func(o *core.Options) { o.AllowArbitrarySizes = true })},
		{"morph-nonneighbor", "MorphCache", "(1:1:16)", with(func(o *core.Options) {
			o.AllowNonNeighbors = true
			o.AllowArbitrarySizes = true
		})},
		{"pipp", "PIPP", "", def},
		{"dsr", "DSR", "", def},
		{"(4:4:1)", "(4:4:1)", "(4:4:1)", def},
		{"(16:1:1)", "(16:1:1)", "(16:1:1)", def},
	}
	for _, tc := range cases {
		t.Run(tc.policy, func(t *testing.T) {
			if _, opts := policyOptions(tc.policy); opts != tc.opts {
				t.Fatalf("options %+v, want %+v", opts, tc.opts)
			}
			target, sys, err := buildTarget(16, 16, tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			if target.Name() != tc.name {
				t.Fatalf("target %q, want %q", target.Name(), tc.name)
			}
			ht, ok := target.(*sim.HierarchyTarget)
			if ok != (tc.spec != "") || (sys != nil) != ok {
				t.Fatalf("hierarchy target %v, -stats system %v, want %v", ok, sys != nil, tc.spec != "")
			}
			if !ok {
				return
			}
			if ht.Spec() != tc.spec {
				t.Fatalf("starts in %s, want %s", ht.Spec(), tc.spec)
			}
			_, isCtrl := ht.Policy.(*core.Controller)
			if isCtrl != strings.HasPrefix(tc.policy, "morph") {
				t.Fatalf("controller %v for %q", isCtrl, tc.policy)
			}
		})
	}
}

func TestUnknownPolicyAndWorkload(t *testing.T) {
	if _, _, err := buildTarget(16, 16, "bogus"); err == nil || !strings.Contains(err.Error(), `unknown policy "bogus"`) {
		t.Fatalf("unknown policy: %v", err)
	}
	if _, err := buildGenerators("gcc", 16, 1, 16); err == nil || !strings.Contains(err.Error(), "use a Table 5 mix or a PARSEC name") {
		t.Fatalf("SPEC name: %v", err)
	}
	for _, name := range []string{"MIX 01", "dedup"} {
		gens, err := buildGenerators(name, 16, 1, 16)
		if err != nil || len(gens) != 16 {
			t.Fatalf("%s: %d generators, %v", name, len(gens), err)
		}
	}
}
