package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// childEnv marks a test binary started as a benchmark child: TestMain runs
// the benchmark's entry point instead of the tests.
const childEnv = "PERFBENCH_SMOKE_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload, untraced and traced, with one repetition
// of each kind, and checks the result line: correct, no failures, and
// exactly the metrics BENCHMARK.json lists, end-to-end ones non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv(childEnv, "1")
	minReps = 1
	dir := t.TempDir()
	tracecheck := filepath.Join(dir, "tracecheck")
	if out, err := exec.Command("go", "build", "-o", tracecheck, "morphcache/cmd/tracecheck").CombinedOutput(); err != nil {
		t.Fatalf("building tracecheck: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "1", "-seconds", "0", "-trace", trace,
					"-tracecheck", tracecheck, "-workdir", dir}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				want := endToEndNames
				if trace == "1" {
					want = perLayerNames
				}
				var got []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				if !sameNames(got, want) {
					t.Fatalf("metrics %v, want %v", got, want)
				}
				if trace == "0" {
					for n, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONNames checks that BENCHMARK.json lists exactly the
// workloads and metrics the benchmark reports, with the same units.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []named) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	if !sameNames(names(spec.Workloads), wl) {
		t.Errorf("workloads %v, want %v", names(spec.Workloads), wl)
	}
	if !sameNames(names(spec.EndToEnd), endToEndNames) {
		t.Errorf("end_to_end %v, want %v", names(spec.EndToEnd), endToEndNames)
	}
	for i, l := range spec.PerLayer {
		if i >= len(perLayer) || l.Name != perLayer[i].name || l.Unit != perLayer[i].unit {
			t.Fatalf("per_layer[%d] = %+v, want the list in layers.go", i, l)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("per_layer has %d metrics, layers.go %d", len(spec.PerLayer), len(perLayer))
	}
}

func sameNames(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
