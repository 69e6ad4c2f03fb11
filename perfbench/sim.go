package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"morphcache"
)

// simWorkers pins the batch pool size, so wall_s does not depend on the
// host's GOMAXPROCS.
const simWorkers = 2

// benchConfig is the one simulator configuration both sim workloads run:
// LabConfig (16 cores, 1/16 capacity scale) cut to 1 warmup and 6 measured
// epochs of 300k cycles, seeded from the run's seed.
func benchConfig(seed uint64) morphcache.Config {
	c := morphcache.LabConfig()
	c.Epochs = 6
	c.WarmupEpochs = 1
	c.EpochCycles = 300_000
	c.Seed = seed
	return c
}

// simJob is one job of a sim workload.
type simJob struct {
	policy   string
	workload morphcache.Workload
	sampled  bool
	bandit   []string // bandit arms; non-nil makes this the bandit job
}

func (j simJob) label() string {
	l := j.policy + " " + j.workload.String()
	if j.sampled {
		l += " sampled"
	}
	return l
}

const sweepMix = "MIX 05"

// sweepPolicies are the MIX 05 jobs of sim-sweep, whose full-run
// throughputs are also sim-windowed's accuracy reference.
var sweepPolicies = []string{"(16:1:1)", "(1:1:16)", "(4:4:1)", "morph", "pipp", "dsr"}

// banditArms are the arms of sim-windowed's bandit job.
var banditArms = []string{"morph", "pipp", "dsr", "(16:1:1)"}

func simJobs(name string) []simJob {
	var jobs []simJob
	switch name {
	case "sim-sweep":
		for _, p := range sweepPolicies {
			jobs = append(jobs, simJob{policy: p, workload: morphcache.Mix(sweepMix)})
		}
		for _, p := range []string{"(16:1:1)", "morph"} {
			jobs = append(jobs, simJob{policy: p, workload: morphcache.Parsec("dedup")})
		}
	case "sim-windowed":
		for _, p := range sweepPolicies {
			jobs = append(jobs, simJob{policy: p, workload: morphcache.Mix(sweepMix), sampled: true})
		}
		jobs = append(jobs, simJob{policy: "bandit", workload: morphcache.Mix("PHASE SHIFT"), bandit: banditArms})
	}
	return jobs
}

// runSpec turns a job into the facade's batch spec.
func (j simJob) runSpec(cfg morphcache.Config) morphcache.RunSpec {
	s := morphcache.RunSpec{Policy: j.policy, Workload: j.workload}
	if j.sampled || j.bandit != nil {
		c := cfg
		if j.sampled {
			sc := morphcache.DefaultSampledConfig()
			c.Sampled = &sc
		} else {
			bc := morphcache.DefaultBanditConfig()
			bc.Arms = j.bandit
			c.Bandit = &bc
		}
		s.Config = &c
	}
	return s
}

// jobOutcome is one simulator job's checked output.
type jobOutcome struct {
	Label      string  `json:"label"`
	Digest     string  `json:"digest"`
	Throughput float64 `json:"throughput"`
	ElapsedS   float64 `json:"elapsed_s"`
}

// simOutput is the part of a run's result the digest covers.
type simOutput struct {
	policy           string
	throughput       float64
	perCoreIPC       []float64
	epochThroughputs []float64
	epochTopologies  []string
	reconfigs, asym  int
}

// digest hashes a job's results bit-exactly.
func (s simOutput) digest() string {
	h := sha256.New()
	word := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	floats := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	io.WriteString(h, s.policy+"\x00")
	word(math.Float64bits(s.throughput))
	floats(s.perCoreIPC)
	floats(s.epochThroughputs)
	word(uint64(len(s.epochTopologies)))
	for _, t := range s.epochTopologies {
		io.WriteString(h, t+"\x00")
	}
	word(uint64(s.reconfigs))
	word(uint64(s.asym))
	return hex.EncodeToString(h.Sum(nil))[:32]
}

func resultOutput(r *morphcache.Result) simOutput {
	return simOutput{
		policy:           r.Policy,
		throughput:       r.Throughput,
		perCoreIPC:       r.PerCoreIPC,
		epochThroughputs: r.EpochThroughputs,
		epochTopologies:  r.EpochTopologies,
		reconfigs:        r.Reconfigurations,
		asym:             r.AsymmetricSteps,
	}
}

// simRep runs one repetition of a sim workload: the job list through
// RunBatch, or, traced, through the wrapped layers (simtrace.go).
func simRep(o options, traced bool) (*repResult, error) {
	cfg := benchConfig(o.seed)
	jobs := simJobs(o.workload)
	if traced {
		return tracedSimRep(o, cfg, jobs)
	}
	specs := make([]morphcache.RunSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.runSpec(cfg)
	}
	res := &repResult{Attempted: len(jobs), Jobs: make([]jobOutcome, len(jobs))}
	start := time.Now()
	res.FirstOpNS = start.UnixNano()
	results, err := morphcache.RunBatch(cfg, specs, morphcache.BatchOptions{
		Workers: simWorkers,
		Progress: func(ev morphcache.JobEvent) {
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
	for i, j := range jobs {
		jo := &res.Jobs[i]
		jo.Label = j.label()
		res.OpUS = append(res.OpUS, jo.ElapsedS*1e6)
		if i < len(results) && results[i] != nil {
			jo.Digest = resultOutput(results[i]).digest()
			jo.Throughput = results[i].Throughput
		}
	}
	return res, nil
}

// referenceFile holds, per seed, each sim workload's job digests and
// full-run throughputs (regenerate with -regen).
type referenceFile struct {
	Config string                                `json:"config"`
	Seeds  map[string]map[string][]jobOutcomeRef `json:"seeds"`
}

type jobOutcomeRef struct {
	Label      string  `json:"label"`
	Digest     string  `json:"digest"`
	Throughput float64 `json:"throughput"`
}

//go:embed reference.json
var referenceJSON []byte

const referenceConfig = "LabConfig; Epochs 6, WarmupEpochs 1, EpochCycles 300000"

// referenceFirstSeed and referenceLastSeed bound the seeds reference.json
// holds and -regen rewrites.
const referenceFirstSeed, referenceLastSeed uint64 = 0, 31

func loadReference() (*referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if ref.Config != referenceConfig {
		return nil, fmt.Errorf("reference.json is for %q, benchmark runs %q; regenerate it", ref.Config, referenceConfig)
	}
	return &ref, nil
}

// checkSim checks every repetition's job digests against the stored
// reference for the seed (when one is stored) and against each other —
// traced repetitions included, which proves the wrappers run the same
// program — then adds the sim-specific metrics.
func checkSim(o options, rp *report, plain, traced []rep) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	stored := ref.Seeds[strconv.FormatUint(o.seed, 10)][o.workload]
	jobs := simJobs(o.workload)
	if stored != nil {
		for i, j := range jobs {
			if len(stored) != len(jobs) || stored[i].Label != j.label() {
				return fmt.Errorf("reference.json does not match the %s job list; regenerate it", o.workload)
			}
		}
	}
	want := make([]string, len(jobs))
	source := "the first repetition"
	if stored != nil {
		for i := range want {
			want[i] = stored[i].Digest
		}
		source = "the stored reference"
	} else if len(plain) > 0 {
		for i, j := range plain[0].Jobs {
			want[i] = j.Digest
		}
	}
	for _, r := range append(append([]rep(nil), plain...), traced...) {
		for i, j := range r.Jobs {
			if j.Digest != "" && j.Digest != want[i] {
				rp.failed++
				rp.fail("%s: digest %s differs from %s (%s; traced=%v)", j.Label, j.Digest, source, want[i], r.Traced)
			}
		}
	}
	if stored == nil {
		rp.infof("seed %d has no stored digests: checked that all repetitions agree", o.seed)
	} else {
		rp.infof("digests checked against the stored reference for seed %d", o.seed)
	}

	// runner layer, from the untraced repetitions' BatchOptions.Progress.
	var busy, longest []float64
	for _, r := range plain {
		var s, m float64
		for _, j := range r.Jobs {
			s += j.ElapsedS
			m = math.Max(m, j.ElapsedS)
		}
		busy = append(busy, s/(simWorkers*r.WallS))
		longest = append(longest, m)
	}
	rp.set("runner.busy_frac", median(busy), "frac", len(busy))
	rp.set("runner.longest_job_s", median(longest), "s", len(longest))

	if o.workload == "sim-windowed" && len(plain) > 0 {
		errPct, worst, err := sampledError(o.seed, ref, plain[0].Jobs)
		if err != nil {
			return err
		}
		rp.infof("sampled_err_pct %.4f%% (max |sampled - full| / full, worst job %s)", errPct, worst)
		rp.set("sampled.err_pct", errPct, "%", 1)
	}
	return nil
}

// sampledError is the largest relative error of a sampled job's throughput
// against the full run of the same policy at the same configuration: the
// stored sim-sweep throughputs when the seed has them, else full runs made
// now.
func sampledError(seed uint64, ref *referenceFile, jobs []jobOutcome) (float64, string, error) {
	full := map[string]float64{}
	if stored := ref.Seeds[strconv.FormatUint(seed, 10)]["sim-sweep"]; stored != nil {
		for _, j := range stored {
			full[j.Label] = j.Throughput
		}
	} else {
		cfg := benchConfig(seed)
		var specs []morphcache.RunSpec
		var labels []string
		for _, j := range simJobs("sim-sweep") {
			if j.workload.String() == sweepMix {
				specs = append(specs, j.runSpec(cfg))
				labels = append(labels, j.label())
			}
		}
		results, err := morphcache.RunBatch(cfg, specs, morphcache.BatchOptions{Workers: simWorkers})
		if err != nil {
			return 0, "", fmt.Errorf("full reference runs: %w", err)
		}
		for i, r := range results {
			full[labels[i]] = r.Throughput
		}
	}
	var worst float64
	var worstLabel string
	for _, j := range jobs {
		f, ok := full[strings.TrimSuffix(j.Label, " sampled")]
		if !ok || !strings.HasSuffix(j.Label, " sampled") {
			continue
		}
		if e := math.Abs(j.Throughput-f) / f * 100; e >= worst {
			worst, worstLabel = e, j.Label
		}
	}
	return worst, worstLabel, nil
}

// regenerate rewrites the reference file: one untraced repetition of each
// sim workload per stored seed.
func regenerate(o options, stderr io.Writer) error {
	ref := referenceFile{Config: referenceConfig, Seeds: map[string]map[string][]jobOutcomeRef{}}
	for seed := referenceFirstSeed; seed <= referenceLastSeed; seed++ {
		perWorkload := map[string][]jobOutcomeRef{}
		for _, w := range workloads {
			if !w.sim {
				continue
			}
			so := o
			so.workload, so.seed = w.name, seed
			r, err := spawn(so, false, stderr)
			if err != nil {
				return err
			}
			if r.Failed > 0 {
				return fmt.Errorf("%s seed %d: %v", w.name, seed, r.Errors)
			}
			for _, j := range r.Jobs {
				perWorkload[w.name] = append(perWorkload[w.name], jobOutcomeRef{Label: j.Label, Digest: j.Digest, Throughput: j.Throughput})
			}
			fmt.Fprintf(stderr, "perfbench: seed %d %s done\n", seed, w.name)
		}
		ref.Seeds[strconv.FormatUint(seed, 10)] = perWorkload
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.regen, append(b, '\n'), 0o644)
}
