package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"morphcache"
	"morphcache/internal/baselines/bandit"
	"morphcache/internal/baselines/dsr"
	"morphcache/internal/baselines/pipp"
	"morphcache/internal/core"
	"morphcache/internal/fault"
	"morphcache/internal/hierarchy"
	"morphcache/internal/mem"
	"morphcache/internal/metrics"
	"morphcache/internal/obs"
	"morphcache/internal/runner"
	"morphcache/internal/sampled"
	"morphcache/internal/sim"
	"morphcache/internal/telemetry"
	"morphcache/internal/topology"
)

// Target kinds, for attributing Access time to a layer.
const (
	kindHierarchy = iota
	kindPIPP
	kindDSR
	numKinds
)

// jobStats accumulates one traced job's per-call counts and ns sums. Each
// job runs on one goroutine (its windows run one after another), so the
// wrappers of a job share it without locks.
type jobStats struct {
	tr  *obs.Tracer
	tid int64

	accessNS, accessN [numKinds]int64
	served            [hierarchy.ByMemory + 1]int64
	nextNS, nextN     int64
	// engineNS sums the engine's epoch loops (first SetCoreASID of an epoch
	// to the return of its EndEpoch); engineNextNS is the Next time inside
	// them (the sampled profiler also calls Next, outside any epoch).
	engineNS, engineNextNS int64
	inEpoch                bool
	endEpochNS             int64
	policyNS, policyN      int64
	reconfigs              int64
}

// timedTarget wraps a sim.Target, timing Access and EndEpoch and recording
// an "epoch" span per engine epoch and an "end_epoch" span per EndEpoch.
type timedTarget struct {
	inner      sim.Target
	kind       int
	st         *jobStats
	epochStart time.Time
	epochSpan  *obs.Span
}

func (t *timedTarget) Name() string { return t.inner.Name() }
func (t *timedTarget) Cores() int   { return t.inner.Cores() }
func (t *timedTarget) Spec() string { return t.inner.Spec() }

// SetCoreASID marks the start of an epoch: the engine assigns every core's
// ASID, core 0 first, before it issues the epoch's first reference.
func (t *timedTarget) SetCoreASID(c int, a mem.ASID) {
	if c == 0 {
		t.epochStart = time.Now()
		t.st.inEpoch = true
		t.epochSpan = t.st.tr.Begin(t.st.tid, "sim", "epoch")
	}
	t.inner.SetCoreASID(c, a)
}

func (t *timedTarget) Access(c int, a mem.Access, now uint64) hierarchy.AccessResult {
	start := time.Now()
	r := t.inner.Access(c, a, now)
	t.st.accessNS[t.kind] += int64(time.Since(start))
	t.st.accessN[t.kind]++
	t.st.served[r.Served]++
	return r
}

func (t *timedTarget) EndEpoch(e int) (int, bool) {
	sp := t.st.tr.Begin(t.st.tid, "sim", "end_epoch").Arg("epoch", e)
	start := time.Now()
	r, asym := t.inner.EndEpoch(e)
	end := time.Now()
	sp.Arg("reconfigs", r).End()
	t.epochSpan.Arg("epoch", e).End()
	t.st.endEpochNS += int64(end.Sub(start))
	t.st.engineNS += int64(end.Sub(t.epochStart))
	t.st.inEpoch = false
	return r, asym
}

// timedHierTarget is a timedTarget over a target that also implements
// every optional interface the engine probes (telemetry.Snapshotter,
// telemetry.RecorderSettable, sim.ObserverSettable, sim.FaultInjectable);
// it forwards them, so the engine takes the same path as unwrapped.
type timedHierTarget struct {
	*timedTarget
	full fullTarget
}

type fullTarget interface {
	sim.Target
	telemetry.Snapshotter
	telemetry.RecorderSettable
	sim.ObserverSettable
	sim.FaultInjectable
}

var _ fullTarget = timedHierTarget{}

func (t timedHierTarget) TelemetrySnapshot() telemetry.Snapshot { return t.full.TelemetrySnapshot() }
func (t timedHierTarget) SetRecorder(r telemetry.Recorder)      { t.full.SetRecorder(r) }
func (t timedHierTarget) SetObserver(o *obs.Observer)           { t.full.SetObserver(o) }
func (t timedHierTarget) ApplyFault(ev fault.Event) error       { return t.full.ApplyFault(ev) }
func (t timedHierTarget) AgeFaults()                            { t.full.AgeFaults() }

// wrapTarget wraps inner, forwarding the optional interfaces when inner
// implements them (the hierarchy-backed targets implement all four, the
// PIPP/DSR baselines none). A target that forwarded the wrong set would
// change the run, and the digest check would fail.
func wrapTarget(inner sim.Target, kind int, st *jobStats) sim.Target {
	tt := &timedTarget{inner: inner, kind: kind, st: st}
	if f, ok := inner.(fullTarget); ok {
		return timedHierTarget{timedTarget: tt, full: f}
	}
	return tt
}

// timedPolicy wraps the MorphCache controller, timing EndEpoch and
// forwarding the recorder and observer hooks HierarchyTarget passes on.
type timedPolicy struct {
	inner *core.Controller
	st    *jobStats
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) EndEpoch(e int, m core.Machine) (int, bool) {
	start := time.Now()
	r, asym := p.inner.EndEpoch(e, m)
	p.st.policyNS += int64(time.Since(start))
	p.st.policyN++
	p.st.reconfigs += int64(r)
	return r, asym
}

func (p *timedPolicy) SetRecorder(r telemetry.Recorder) { p.inner.SetRecorder(r) }
func (p *timedPolicy) SetObserver(o *obs.Observer)      { p.inner.SetObserver(o) }

// timedSource wraps a reference generator, timing Next.
type timedSource struct {
	inner sim.Source
	st    *jobStats
}

func (s *timedSource) ASID() mem.ASID   { return s.inner.ASID() }
func (s *timedSource) BeginEpoch(e int) { s.inner.BeginEpoch(e) }

func (s *timedSource) Next() mem.Access {
	start := time.Now()
	a := s.inner.Next()
	d := int64(time.Since(start))
	s.st.nextNS += d
	s.st.nextN++
	if s.st.inEpoch {
		s.st.engineNextNS += d
	}
	return a
}

// simConfig is the engine configuration the facade derives from a Config
// (morphcache.Config.simConfig, with telemetry, faults and observer off).
func simConfig(c morphcache.Config) sim.Config {
	return sim.Config{
		EpochCycles:  c.EpochCycles,
		Epochs:       c.Epochs,
		WarmupEpochs: c.WarmupEpochs,
		GapInstr:     8,
		IssueWidth:   4,
		Seed:         c.Seed,
	}
}

// newTarget builds a fresh wrapped target for a policy the way the facade
// does for full runs, sampled windows and bandit arms.
func newTarget(c morphcache.Config, policy string, st *jobStats) (sim.Target, error) {
	p := c.Params()
	switch policy {
	case "morph":
		p.ChargeRemote = true
		sys, err := hierarchy.New(p, topology.AllPrivate(p.Cores))
		if err != nil {
			return nil, err
		}
		pol := &timedPolicy{inner: core.New(c.Morph), st: st}
		return wrapTarget(&sim.HierarchyTarget{Sys: sys, Policy: pol}, kindHierarchy, st), nil
	case "pipp":
		return wrapTarget(pipp.New(p, pipp.DefaultOptions()), kindPIPP, st), nil
	case "dsr":
		return wrapTarget(dsr.New(p, dsr.DefaultOptions()), kindDSR, st), nil
	default:
		topo, err := topology.FromSpec(policy, p.Cores)
		if err != nil {
			return nil, err
		}
		p.ChargeRemote = false
		sys, err := hierarchy.New(p, topo)
		if err != nil {
			return nil, err
		}
		return wrapTarget(&sim.HierarchyTarget{Sys: sys, Policy: sim.NopPolicy{Label: policy}}, kindHierarchy, st), nil
	}
}

func newSources(c morphcache.Config, w morphcache.Workload, st *jobStats) ([]sim.Source, error) {
	gens, err := w.Generators(c)
	if err != nil {
		return nil, err
	}
	out := make([]sim.Source, len(gens))
	for i, g := range gens {
		out[i] = &timedSource{inner: g, st: st}
	}
	return out, nil
}

// tracedJob is one traced job's result.
type tracedJob struct {
	run     *metrics.Run
	sampled *sampled.Report
	bandit  *bandit.Report
}

// runTracedJob runs one job through sim.NewFromSources, sampled.Run or
// bandit.Run with wrapped factories.
func runTracedJob(c morphcache.Config, j simJob, st *jobStats) (*tracedJob, error) {
	scfg := simConfig(c)
	srcs := func() ([]sim.Source, error) { return newSources(c, j.workload, st) }
	switch {
	case j.sampled:
		// The profile key the facade uses (morphcache.runSampled).
		key := fmt.Sprintf("%s|c%d|x%d|cy%d", j.workload.String(), c.Cores, c.Scale, c.EpochCycles)
		rr, err := sampled.Run(scfg, sampled.Defaults(), key, sampled.Factories{
			NewTarget:  func() (sim.Target, error) { return newTarget(c, j.policy, st) },
			NewSources: srcs,
		})
		if err != nil {
			return nil, err
		}
		return &tracedJob{run: rr.Run, sampled: rr.Report}, nil
	case j.bandit != nil:
		bo := bandit.Defaults()
		bo.Arms = j.bandit
		rr, err := bandit.Run(scfg, bo, bandit.Factories{
			NewTarget:  func(arm string) (sim.Target, error) { return newTarget(c, arm, st) },
			NewSources: srcs,
		})
		if err != nil {
			return nil, err
		}
		return &tracedJob{run: rr.Run, bandit: rr.Report}, nil
	default:
		t, err := newTarget(c, j.policy, st)
		if err != nil {
			return nil, err
		}
		s, err := srcs()
		if err != nil {
			return nil, err
		}
		eng, err := sim.NewFromSources(scfg, t, s)
		if err != nil {
			return nil, err
		}
		return &tracedJob{run: eng.Run()}, nil
	}
}

func runOutput(r *metrics.Run) simOutput {
	out := simOutput{
		policy:           r.Policy,
		throughput:       r.Throughput(),
		perCoreIPC:       r.PerCoreIPC,
		epochThroughputs: r.EpochThroughputs(),
		reconfigs:        r.Reconfigurations,
		asym:             r.AsymmetricSteps,
	}
	for _, e := range r.Epochs {
		out.epochTopologies = append(out.epochTopologies, e.Topology)
	}
	return out
}

// tracedSimRep runs the job list through internal/runner with every layer
// wrapped, and reports the per-layer metrics and a trace file.
func tracedSimRep(o options, c morphcache.Config, jobs []simJob) (*repResult, error) {
	tr := obs.NewTracer(nil)
	stats := make([]*jobStats, len(jobs))
	rjobs := make([]runner.Job[*tracedJob], len(jobs))
	for i, j := range jobs {
		st := &jobStats{tr: tr, tid: int64(i + 1)}
		stats[i] = st
		rjobs[i] = runner.Job[*tracedJob]{Label: j.label(), Run: func() (*tracedJob, error) {
			sp := tr.Begin(st.tid, "bench", "job").Arg("label", j.label())
			defer sp.End()
			return runTracedJob(c, j, st)
		}}
	}
	res := &repResult{Traced: true, Attempted: len(jobs), Jobs: make([]jobOutcome, len(jobs))}
	start := time.Now()
	res.FirstOpNS = start.UnixNano()
	out, err := runner.Run(context.Background(), rjobs, runner.Options{
		Workers: simWorkers,
		Progress: func(ev runner.Event) {
			res.Jobs[ev.Index].ElapsedS = ev.Elapsed.Seconds()
			if ev.Err != nil {
				res.fail("%s: %v", ev.Label, ev.Err)
			}
		},
	})
	res.WallS = time.Since(start).Seconds()
	if err != nil && res.Failed == 0 {
		res.fail("batch: %v", err)
	}

	var tot jobStats
	var simEpochs, allEpochs, phases, windows, switches float64
	for i, j := range jobs {
		jo := &res.Jobs[i]
		jo.Label = j.label()
		res.OpUS = append(res.OpUS, jo.ElapsedS*1e6)
		if i < len(out) && out[i] != nil {
			jo.Digest = runOutput(out[i].run).digest()
			jo.Throughput = out[i].run.Throughput()
			if r := out[i].sampled; r != nil {
				simEpochs += float64(r.SimulatedEpochs)
				allEpochs += float64(r.MeasuredEpochs + c.WarmupEpochs)
				phases += float64(len(r.Phases))
			}
			if r := out[i].bandit; r != nil {
				windows += float64(len(r.Windows))
				switches += float64(r.Switches)
			}
		}
		st := stats[i]
		for k := 0; k < numKinds; k++ {
			tot.accessNS[k] += st.accessNS[k]
			tot.accessN[k] += st.accessN[k]
		}
		for k := range st.served {
			tot.served[k] += st.served[k]
		}
		tot.nextNS += st.nextNS
		tot.nextN += st.nextN
		tot.engineNS += st.engineNS
		tot.engineNextNS += st.engineNextNS
		tot.endEpochNS += st.endEpochNS
		tot.policyNS += st.policyNS
		tot.policyN += st.policyN
		tot.reconfigs += st.reconfigs
	}

	l := zeroLayers()
	perCall := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	var refs, accessNS int64
	for k := 0; k < numKinds; k++ {
		refs += tot.accessN[k]
		accessNS += tot.accessNS[k]
	}
	l["sim.refs"] = float64(refs)
	l["sim.self_ns_per_ref"] = perCall(tot.engineNS-accessNS-tot.engineNextNS-tot.endEpochNS, refs)
	l["workload.next_ns"] = perCall(tot.nextNS, tot.nextN)
	l["workload.next_calls"] = float64(tot.nextN)
	l["hierarchy.access_ns"] = perCall(tot.accessNS[kindHierarchy], tot.accessN[kindHierarchy])
	l["baselines.pipp_access_ns"] = perCall(tot.accessNS[kindPIPP], tot.accessN[kindPIPP])
	l["baselines.dsr_access_ns"] = perCall(tot.accessNS[kindDSR], tot.accessN[kindDSR])
	for k, name := range []string{"l1", "l2", "l3", "c2c", "mem"} {
		l["hierarchy.served_"+name+"_frac"] = perCall(tot.served[k], refs)
	}
	l["core.end_epoch_us"] = perCall(tot.policyNS, tot.policyN) / 1e3
	l["core.reconfigs"] = float64(tot.reconfigs)
	if allEpochs > 0 {
		l["sampled.simulated_epoch_frac"] = simEpochs / allEpochs
	}
	l["sampled.phases"] = phases
	l["bandit.windows"] = windows
	l["bandit.switches"] = switches
	res.Layers = l

	res.TraceFile = filepath.Join(o.workdir, "trace-"+o.workload+".json")
	if err := writeTrace(res.TraceFile, tr); err != nil {
		return nil, err
	}
	return res, nil
}

func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
