package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// tinyScale runs every workload in a second or two.
var tinyScale = scale{scanTrialsPerS: 2, shotsPerS: 200, layoutTrials: 1, probeShots: 50, probeReps: 1, setups: 2, quickSetups: 3}

// TestMain lets the test binary stand in for the benchmark binary when a
// run measures a set-up in a child process.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "--setup-only") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is the schema of BENCHMARK.json that the self-test reads.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkloadsEmitEveryMetric runs every workload of BENCHMARK.json at a
// tiny size, untraced and traced, and checks that each run passes its
// output check and emits exactly the metrics BENCHMARK.json names, with
// their units; the traced run also checks that its span tree nests.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range f.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if !sameUnits(endToEnd, endToEndUnits) || !sameUnits(perLayer, perLayerUnits) {
		t.Fatalf("BENCHMARK.json metrics differ from the benchmark's:\nend_to_end %v\nwant %v\nper_layer %v\nwant %v",
			endToEnd, endToEndUnits, perLayer, perLayerUnits)
	}
	for _, wl := range f.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl.Name, seed: 3, seconds: 1, trace: trace, outDir: t.TempDir(), scale: tinyScale}
			rep, err := benchmark(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if rep.checkErr != nil || !rep.result.Correct || rep.result.Attempted < 1 {
				t.Fatalf("%s trace=%v: check %v, result %+v", wl.Name, trace, rep.checkErr, rep.result)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			got := map[string]string{}
			for name, m := range rep.result.Metrics {
				got[name] = m.Unit
			}
			if !sameUnits(got, want) {
				t.Errorf("%s trace=%v emitted %v, want %v", wl.Name, trace, keys(got), keys(want))
			}
			if len(rep.SetupS) < tinyScale.setups {
				t.Errorf("%s: %d set-up samples, want at least %d", wl.Name, len(rep.SetupS), tinyScale.setups)
			}
			if trace {
				if _, err := os.Stat(rep.Spans); err != nil {
					t.Errorf("%s: spans not written: %v", wl.Name, err)
				}
			}
		}
	}
}

// TestPerturbedRowFailsCheck alters one stored row of each workload's pass
// and requires the output check to reject it against the clean rows' hash.
func TestPerturbedRowFailsCheck(t *testing.T) {
	for _, name := range []string{"traj-scan", "memory-sweep"} {
		w, err := newWorkload(name, tinyScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := w.setup(t.TempDir(), 5)
		if err != nil {
			t.Fatal(err)
		}
		out, err := collect(w, st, w.run(st))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkOutputs(w, st, out, out.hash); err != nil {
			t.Fatalf("%s: clean rows fail the check: %v", name, err)
		}
		bad := *out
		bad.points = slices.Clone(out.points)
		p := &bad.points[len(bad.points)/2]
		if name == "memory-sweep" {
			p.Failures++
		} else {
			p.Payload = []byte(strings.Replace(string(p.Payload), `"epochs":`, `"epochs":1`, 1))
		}
		bad.hash = canonicalHash(bad.points)
		if err := checkOutputs(w, st, &bad, out.hash); err == nil {
			t.Errorf("%s: perturbed row passed the output check", name)
		}
		bad.failed = 1
		if err := checkOutputs(w, st, &bad, ""); err == nil {
			t.Errorf("%s: a failed point passed the output check", name)
		}
	}
}

// TestSpanTreeNests checks that the recorder accepts nested spans and
// rejects a child that outlives its parent.
func TestSpanTreeNests(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("root", 0)
	child := rec.begin("child", root.ID())
	rec.begin("grandchild", child.ID()).end()
	child.end()
	root.end()
	if err := rec.checkTree(); err != nil {
		t.Fatalf("nested spans: %v", err)
	}
	late := rec.begin("late", root.ID())
	late.end()
	if err := rec.checkTree(); err == nil {
		t.Error("a child span ending after its parent passed the check")
	}
}

func sameUnits(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
