// Command perfbench is the repository's end-to-end benchmark. It measures
// both uses of the MorphCache controller from outside the program: batch
// simulator sweeps (sim-sweep, sim-windowed) and the loopback cache server
// (serve-read, serve-write). A traced run (-trace 1) drives the same work
// through wrappers around each layer's public functions and reports
// per-layer metrics instead.
//
// Run it through run.sh from the root of a checkout, which builds the
// program from source first:
//
//	bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 20 --trace 0
//
// A run repeats its workload, one repetition per fresh child process,
// until -seconds have passed and at least minReps repetitions are done. It
// prints a table of every metric with its unit and sample count, then, as
// the last line of standard output, one JSON object:
//
//	{"correct":true,"attempted":64,"failed":0,"metrics":{"wall_s":{"value":2.31,"unit":"s"},...}}
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings shared by the parent and its
// children.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	tracecheck string
	workdir    string
	child      bool
	regen      string
}

// workload is one benchmark workload: how to run one repetition in a
// child process.
type workload struct {
	name string
	sim  bool
	rep  func(o options, traced bool) (*repResult, error)
}

var workloads = []workload{
	{name: "sim-sweep", sim: true, rep: simRep},
	{name: "sim-windowed", sim: true, rep: simRep},
	{name: "serve-read", rep: serveRep},
	{name: "serve-write", rep: serveRep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minReps is the fewest repetitions of each kind (untraced, and traced
// with -trace 1) a run makes, whatever -seconds says: the reported set-up
// time and wall time are medians over repetitions.
var minReps = 3

// repResult is what one child process reports about its repetition.
type repResult struct {
	Traced bool `json:"traced"`
	// FirstOpNS is the wall clock (Unix ns) at which the first timed
	// operation began; the parent subtracts the child's spawn time.
	FirstOpNS int64 `json:"first_op_ns"`
	// WallS is the time to finish the repetition's fixed operation list.
	WallS float64 `json:"wall_s"`
	// OpUS holds the latency of every primary operation: each job of a
	// simulator workload, each request of the serve workload's primary
	// type (GET on serve-read, PUT on serve-write).
	OpUS      []float64 `json:"op_us"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Errors holds the first few failure descriptions.
	Errors []string     `json:"errors,omitempty"`
	Jobs   []jobOutcome `json:"jobs,omitempty"`
	Serve  *serveStats  `json:"serve,omitempty"`
	// Layers holds the per-layer metrics a traced repetition measured.
	Layers    map[string]float64 `json:"layers,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// maxErrors bounds how many failure descriptions a repetition keeps.
const maxErrors = 5

func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: sim-sweep, sim-windowed, serve-read or serve-write")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.tracecheck, "tracecheck", "", "path of the cmd/tracecheck binary (required with -trace 1)")
	fs.StringVar(&o.workdir, "workdir", "", "directory for temporary files (required)")
	fs.BoolVar(&o.child, "child", false, "run one repetition and print its result (internal)")
	fs.StringVar(&o.regen, "regen", "", "regenerate the simulator reference file at this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.workdir == "" {
		fmt.Fprintln(stderr, "perfbench: -workdir is required")
		return 2
	}
	if o.regen != "" {
		if err := regenerate(o, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.child {
		res, err := w.rep(o, o.trace)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if o.trace && o.tracecheck == "" {
		fmt.Fprintln(stderr, "perfbench: -trace 1 needs -tracecheck")
		return 2
	}
	if err := runParent(o, w, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// rep is one finished child repetition as the parent saw it.
type rep struct {
	*repResult
	setupS float64
	rssMB  float64
}

// childTimeout bounds one repetition; a repetition normally takes seconds,
// so a child past it is hung and the run fails instead of waiting forever.
const childTimeout = 120 * time.Second

// spawn runs one repetition in a fresh child process. A fresh process per
// repetition keeps process-global caches (the sampled profiler's profile
// cache) and heap state from one repetition out of the next, and lets
// set-up time run from process start.
func spawn(o options, traced bool, stderr io.Writer) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-trace", trace, "-workdir", o.workdir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("%s repetition: %w", o.workload, err)
	}
	var res repResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return rep{}, fmt.Errorf("%s repetition: bad result: %w", o.workload, err)
	}
	r := rep{repResult: &res, setupS: float64(res.FirstOpNS-start.UnixNano()) / 1e9}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// report is the parent's aggregate of a run.
type report struct {
	correct   bool
	attempted int
	failed    int
	errors    []string
	metrics   map[string]metric
	// info holds lines printed for a reader but not part of the JSON
	// result (metrics that are deterministic, zero in a healthy run, or
	// that BENCHMARK.json does not list).
	info []string
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	if len(r.errors) < maxErrors {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func runParent(o options, w workload, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var plain, traced []rep
	for i := 0; ; i++ {
		tr := o.trace && i%2 == 1
		if !tr && len(plain) >= minReps && (!o.trace || len(traced) >= minReps) && time.Now().After(deadline) {
			break
		}
		r, err := spawn(o, tr, stderr)
		if err != nil {
			return err
		}
		if tr {
			if err := runTracecheck(o.tracecheck, r.TraceFile, stderr); err != nil {
				r.fail("%v", err)
			}
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	rp := &report{correct: true, metrics: map[string]metric{}}
	for _, r := range append(append([]rep(nil), plain...), traced...) {
		rp.attempted += r.Attempted
		rp.failed += r.Failed
		for _, e := range r.Errors {
			rp.fail("%s", e)
		}
	}
	if rp.failed > 0 {
		rp.correct = false
	}
	endToEnd(rp, plain)
	var err error
	if w.sim {
		err = checkSim(o, rp, plain, traced)
	} else {
		err = checkServe(o, rp, plain, traced)
	}
	if err != nil {
		return err
	}
	if o.trace {
		rp.set("trace.wall_ratio", median(walls(traced))/median(walls(plain)), "ratio", len(traced))
		layerMedians(rp, traced)
		rp.metrics = filter(rp.metrics, perLayerNames)
	} else {
		rp.metrics = filter(rp.metrics, endToEndNames)
	}
	rp.infof("failed_frac %.6g (%d failed / %d attempted)", float64(rp.failed)/float64(max(rp.attempted, 1)), rp.failed, rp.attempted)
	return writeReport(stdout, o, w, rp, len(plain), len(traced))
}

// endToEndNames are the metrics a run without tracing reports, in
// BENCHMARK.json order.
var endToEndNames = []string{"wall_s", "op_p50_us", "op_p90_us", "peak_rss_mb", "setup_s"}

func endToEnd(rp *report, plain []rep) {
	var setup, rss, p50, p90, p99 []float64
	ops := 0
	for _, r := range plain {
		setup = append(setup, r.setupS)
		rss = append(rss, r.rssMB)
		p50 = append(p50, quantile(r.OpUS, 0.50))
		p90 = append(p90, quantile(r.OpUS, 0.90))
		p99 = append(p99, quantile(r.OpUS, 0.99))
		ops += len(r.OpUS)
	}
	rp.set("setup_s", median(setup), "s", len(setup))
	rp.set("peak_rss_mb", median(rss), "MB", len(rss))
	rp.set("wall_s", median(walls(plain)), "s", len(plain))
	// Latency quantiles are taken per repetition and reported as their
	// median, so one disturbed repetition does not set the run's tail. The
	// gated tail is p90: p99 followed the shared host's disk and neighbours
	// (serve-write's PUT p99 ranged 0.9-3.9 ms over ten runs), so it is
	// printed, not gated.
	rp.set("op_p50_us", median(p50), "us", ops)
	rp.set("op_p90_us", median(p90), "us", ops)
	rp.infof("op_p99_us %.6g (median over repetitions; not gated)", median(p99))
}

func walls(rs []rep) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.WallS
	}
	return out
}

// layerMedians reports each per-layer metric as its median over the traced
// repetitions. Metrics the parent already set (from untraced repetitions)
// are kept.
func layerMedians(rp *report, traced []rep) {
	vals := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.Layers {
			vals[k] = append(vals[k], v)
		}
	}
	for _, l := range perLayer {
		if _, ok := rp.metrics[l.name]; ok {
			continue
		}
		rp.set(l.name, median(vals[l.name]), l.unit, len(vals[l.name]))
	}
}

func filter(m map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		if v, ok := m[n]; ok {
			out[n] = v
		}
	}
	return out
}

func runTracecheck(bin, file string, stderr io.Writer) error {
	if file == "" {
		return errors.New("traced repetition wrote no trace file")
	}
	cmd := exec.Command(bin, file)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("tracecheck %s: %w", filepath.Base(file), err)
	}
	return nil
}

func writeReport(stdout io.Writer, o options, w workload, rp *report, plain, traced int) error {
	bw := bufio.NewWriter(stdout)
	var mode string
	if o.trace {
		mode = fmt.Sprintf("traced (%d traced + %d untraced repetitions)", traced, plain)
	} else {
		mode = fmt.Sprintf("untraced (%d repetitions)", plain)
	}
	fmt.Fprintf(bw, "perfbench %s seed %d, %s\n", w.name, o.seed, mode)
	fmt.Fprintf(bw, "%-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples")
	names := make([]string, 0, len(rp.metrics))
	for n := range rp.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rp.metrics[n]
		fmt.Fprintf(bw, "%-34s %16.6g  %-6s %d\n", n, m.Value, m.Unit, m.n)
	}
	for _, l := range rp.info {
		fmt.Fprintln(bw, "  "+l)
	}
	for _, e := range rp.errors {
		fmt.Fprintln(bw, "  FAILED: "+e)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rp.correct, rp.attempted, rp.failed, rp.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(bw, string(b))
	return bw.Flush()
}
