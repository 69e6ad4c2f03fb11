package main

import (
	"fmt"

	mc "morphcache"

	"morphcache/internal/core"
	"morphcache/internal/energy"
	"morphcache/internal/hierarchy"
	"morphcache/internal/runner"
	"morphcache/internal/sim"
	"morphcache/internal/stats"
)

// energyExp quantifies the §7 future-work claim: the segmented bus reduces
// interconnect energy because isolated segment groups only switch their own
// capacitance. It meters three designs on the same workloads:
//
//   - MorphCache on the segmented bus (groups sized by the controller),
//   - MorphCache's traffic charged as if every transaction drove a
//     monolithic chip-spanning bus, and
//   - the all-shared static baseline (whose every transaction genuinely
//     crosses the whole chip).
func energyExp(cfg mc.Config, quick bool) error {
	names := mixNames(quick)
	if len(names) > 4 {
		names = names[:4]
	}
	// One metering job per mix; each job builds its own hierarchies and
	// meters, returning only the numbers the table needs.
	type energyRow struct{ segUJ, monoUJ, sharedUJ, saving float64 }
	rows, err := runner.Map(runCtx, names, runner.Options{Workers: jobCount(), Progress: runnerProgress},
		func(_ int, mn string) (energyRow, error) {
			w := mc.Mix(mn)
			gens, err := w.Generators(cfg)
			if err != nil {
				return energyRow{}, err
			}
			t, err := mc.NewTarget(cfg.Params(), cfg.Morph, "morph")
			if err != nil {
				return energyRow{}, err
			}
			ht := t.(*sim.HierarchyTarget)
			seg := energy.NewMeter(energy.Default())
			mono := energy.NewMeter(energy.Default())
			pol := &meteredPolicy{inner: ht.Policy.(*core.Controller), sys: ht.Sys, seg: seg, mono: mono}
			ht.Policy = pol
			eng, err := sim.New(simConfigOf(cfg), ht, gens)
			if err != nil {
				return energyRow{}, err
			}
			eng.Run()
			pol.flush()

			// The all-shared static baseline, metered on its own traffic.
			gens2, err := w.Generators(cfg)
			if err != nil {
				return energyRow{}, err
			}
			st, err := mc.NewTarget(cfg.Params(), cfg.Morph, fmt.Sprintf("(%d:1:1)", cfg.Cores))
			if err != nil {
				return energyRow{}, err
			}
			seng, err := sim.New(simConfigOf(cfg), st, gens2)
			if err != nil {
				return energyRow{}, err
			}
			seng.Run()
			sharedMeter := energy.NewMeter(energy.Default())
			sharedMeter.Charge(hierarchy.Stats{}, *st.(*sim.HierarchyTarget).Sys.Stats(), energy.MonolithicTopology(cfg.Cores))

			return energyRow{
				segUJ:    seg.TotalNJ / 1000,
				monoUJ:   mono.TotalNJ / 1000,
				sharedUJ: sharedMeter.TotalNJ / 1000,
				saving:   1 - seg.BusNJ/mono.BusNJ,
			}, nil
		})
	if err != nil {
		return err
	}
	header("mix", []string{"morph-seg", "morph-mono", "shared", "seg-saving"})
	var savings []float64
	for i, mn := range names {
		r := rows[i]
		fmt.Fprintf(outw, "%-14s %9.1fuJ %9.1fuJ %9.1fuJ %9.0f%%\n",
			mn, r.segUJ, r.monoUJ, r.sharedUJ, 100*r.saving)
		savings = append(savings, r.saving)
	}
	fmt.Fprintf(outw, "\nmean interconnect energy saved by segmentation (same traffic): %.0f%%\n",
		100*stats.Mean(savings))
	fmt.Fprintln(outw, "(the paper's §7 expectation, quantified: isolated segments switch only")
	fmt.Fprintln(outw, "their own capacitance, so right-sized groups cut bus energy sharply)")
	return nil
}

// meteredPolicy decorates the MorphCache controller with per-epoch energy
// charging under the topology that was in force during the epoch.
type meteredPolicy struct {
	inner     *core.Controller
	sys       *hierarchy.System
	seg, mono *energy.Meter
	prev      hierarchy.Stats
}

func (m *meteredPolicy) Name() string { return "MorphCache+energy" }

func (m *meteredPolicy) EndEpoch(e int, mach core.Machine) (int, bool) {
	cur := *m.sys.Stats()
	m.seg.Charge(m.prev, cur, m.sys.Topology())
	m.mono.Charge(m.prev, cur, energy.MonolithicTopology(m.sys.Cores()))
	m.prev = cur
	return m.inner.EndEpoch(e, mach)
}

// flush charges any tail accumulated after the last EndEpoch.
func (m *meteredPolicy) flush() {
	cur := *m.sys.Stats()
	m.seg.Charge(m.prev, cur, m.sys.Topology())
	m.mono.Charge(m.prev, cur, energy.MonolithicTopology(m.sys.Cores()))
	m.prev = cur
}
