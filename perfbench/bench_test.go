package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// tinySize keeps every workload to a few seconds: paper density (so the
// initial cluster is connected), a short horizon.
var tinySize = size{N: 240, Duration: 20, ServiceN: 20, ServiceDuration: 30, ServiceSide: 250}

// benchmarkMetrics reads the metric tables of ../BENCHMARK.json.
func benchmarkMetrics(t *testing.T) (e2e, layers []metricDef, workloads []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	return bf.EndToEnd, bf.PerLayer, workloads
}

func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	e2e, layers, workloads := benchmarkMetrics(t)
	same := func(name string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", name, len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", name, i, want[i], got[i])
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)
	// The program may run workloads BENCHMARK.json leaves out (service,
	// dropped for its spread), not the other way round.
	for _, w := range workloads {
		known := false
		for _, d := range workloadNames {
			known = known || d == w
		}
		if !known {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w)
		}
	}
}

// checkResult asserts that every metric of defs is printed, with its unit
// and a finite value, and that no operation failed.
func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s: unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s: value %v", d.Name, m.Value)
		}
	}
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     3,
		window:   300 * time.Millisecond,
		trace:    trace,
		size:     tinySize,
		workDir:  t.TempDir(),
	}
}

// TestSmoke runs each workload at a tiny size and checks its output line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers, _ := benchmarkMetrics(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := run(context.Background(), smokeOptions(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, e2e)
			if got := res.Metrics["ok_frac"].Value; got != 1 {
				t.Errorf("ok_frac = %v, want 1", got)
			}
			for _, name := range []string{"setup_s", "run_s_p50", "runs_per_s", "coverage_mean", "connected_frac"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		res, err := run(context.Background(), smokeOptions(t, "paper-grid", true))
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, layers)
	})
}

// TestCoverageRepeats checks that coverage_mean and connected_frac repeat
// exactly for a seed, whatever the host speed.
func TestCoverageRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	a, err := run(context.Background(), smokeOptions(t, "paper-grid", false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(context.Background(), smokeOptions(t, "paper-grid", false))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"coverage_mean", "connected_frac"} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestStepToMatchesRunUntil(t *testing.T) {
	// The traced stepper's per-period stepping is checked against
	// mobisense.Run inside traceGridConfig; here a job at tiny size must
	// agree on every config.
	jobs, setup := gridSetup(5)
	env, err := setup()
	if err != nil {
		t.Fatal(err)
	}
	var gt gridTrace
	for _, c := range jobs[0] {
		ok, err := traceGridConfig(nil, env, c, tinySize, &gt)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%s on %s: traced stepper disagrees with mobisense.Run", c.scheme, c.scenario)
		}
	}
	if gt.events == 0 || gt.messages == 0 {
		t.Errorf("events=%d messages=%d, want both > 0", gt.events, gt.messages)
	}
}
