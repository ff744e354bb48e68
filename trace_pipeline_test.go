package mobisense

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mobisense/internal/core"
	"mobisense/internal/coverage"
)

// pipelineConfig is a traced obstacle-field run that exercises every
// tracker path the coverage worker takes: the first seed, re-seeds while
// the fleet converges, incremental Set on settled ticks, and — for
// FLOOR, whose fleet has settled by the first kill at 150 s — Clear for
// the injected failures. Layout capture is thinned so samples with and
// without layouts interleave.
func pipelineConfig(t *testing.T, s Scheme, stride float64) Config {
	t.Helper()
	f, err := BuildScenario("random-obstacles", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s)
	cfg.Field = f
	cfg.N = 30
	cfg.Duration = 300
	cfg.Rc = 60
	cfg.Rs = 40
	cfg.Seed = 5
	cfg.Trace = &TraceOptions{Stride: stride, Layouts: true, LayoutStride: 3}
	cfg.Failures = &FailureOptions{Interval: 150, MaxKills: 2}
	return cfg
}

// withIncremental runs fn with the incremental coverage engine switched
// on or off.
func withIncremental(on bool, fn func()) {
	prev := coverage.SetIncrementalEnabled(on)
	defer coverage.SetIncrementalEnabled(prev)
	fn()
}

// sameTracedResult requires two runs of one config — one on the
// pipelined incremental engine, one on the synchronous brute-force
// oracle — to agree on every traced quantity, bit for bit.
func sameTracedResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if len(want.Trace) == 0 {
		t.Fatalf("%s: run has no trace", label)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: %d trace samples, want %d", label, len(got.Trace), len(want.Trace))
	}
	for k := range want.Trace {
		if !reflect.DeepEqual(got.Trace[k], want.Trace[k]) {
			t.Fatalf("%s: trace sample %d differs:\n got %+v\nwant %+v", label, k, got.Trace[k], want.Trace[k])
		}
	}
	if !reflect.DeepEqual(got.Convergence, want.Convergence) {
		t.Errorf("%s: convergence %+v, want %+v", label, got.Convergence, want.Convergence)
	}
	if got.Coverage != want.Coverage || got.Coverage2 != want.Coverage2 {
		t.Errorf("%s: coverage %v/%v, want %v/%v", label, got.Coverage, got.Coverage2, want.Coverage, want.Coverage2)
	}
}

// TestTracePipelineFullSeriesBitIdentical compares whole trace series,
// not just final metrics, between the pipelined incremental engine and
// the brute-force per-sample scans: standalone runs (whose seeds fan out
// over GOMAXPROCS) at integer and fractional strides, and sweeps at one
// and at four workers.
func TestTracePipelineFullSeriesBitIdentical(t *testing.T) {
	for _, s := range []Scheme{SchemeCPVF, SchemeFLOOR} {
		for _, stride := range []float64{1, 2.5} {
			cfg := pipelineConfig(t, s, stride)
			var got, want Result
			var err error
			withIncremental(true, func() { got, err = Run(cfg) })
			if err != nil {
				t.Fatal(err)
			}
			withIncremental(false, func() { want, err = Run(cfg) })
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("Run %s stride=%g", s, stride)
			sameTracedResult(t, label, got, want)

			// The configuration must really reach the Clear path and
			// thin its layouts, or the comparison proves less than it
			// claims.
			if last := want.Trace[len(want.Trace)-1]; last.Alive >= cfg.N {
				t.Errorf("%s: no sensor failed", label)
			}
			for k, smp := range want.Trace {
				if (smp.Layout != nil) != (k%3 == 0) {
					t.Fatalf("%s: sample %d layout presence wrong", label, k)
				}
			}
		}
	}

	sweep := Sweep{
		Base:      pipelineConfig(t, SchemeFLOOR, 2.5),
		Schemes:   []Scheme{SchemeCPVF, SchemeFLOOR},
		Scenarios: []string{"narrow-door", "random-obstacles"},
		Ns:        []int{25},
		Repeats:   2,
		Seed:      17,
	}
	for _, workers := range []int{1, 4} {
		var got, want SweepResult
		var err error
		withIncremental(true, func() {
			got, err = sweep.Run(context.Background(), BatchOptions{Workers: workers})
		})
		if err != nil {
			t.Fatal(err)
		}
		withIncremental(false, func() {
			want, err = sweep.Run(context.Background(), BatchOptions{Workers: workers})
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Runs {
			label := fmt.Sprintf("Sweep workers=%d run %d", workers, i)
			sameTracedResult(t, label, got.Runs[i].Result, want.Runs[i].Result)
		}
	}
}

// panicScheme is a stub scheme that panics partway through a run, after
// the tracer has already handed snapshots to its coverage worker.
type panicScheme struct{ at float64 }

func (panicScheme) Name() string { return "panic" }

func (s panicScheme) Attach(w *core.World) {
	w.E.ScheduleAt(s.at, func() { panic("stub scheme failure") })
}

// waitGoroutines fails the test unless the goroutine count drops back
// to base; a worker that has closed its done channel may still need a
// moment to exit.
func waitGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines, baseline %d\n%s", label, runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracePipelineGoroutinesExit checks that every traced run's coverage
// worker exits: after a batch of runs, after a cancelled sweep, and after
// a scheme that panics mid-run.
func TestTracePipelineGoroutinesExit(t *testing.T) {
	cfg := sweepConfig()
	cfg.Duration = 40
	cfg.Trace = &TraceOptions{Stride: 2}
	if _, err := Run(cfg); err != nil { // warm pools before the baseline
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	if _, err := (Sweep{Base: cfg, Repeats: 4}).Run(context.Background(), BatchOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "batch", base)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := (Sweep{Base: cfg, Repeats: 8}).Run(ctx, BatchOptions{
		Workers: 2,
		OnProgress: func(done, _ int) {
			if done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	waitGoroutines(t, "cancelled sweep", base)

	pcfg := quickConfig(SchemeCPVF)
	pcfg.Trace = &TraceOptions{Stride: 1}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("stub scheme did not panic")
			}
		}()
		_, _ = runEventScheme(pcfg, pcfg.Field.internal(), panicScheme{at: 10.5}, nil)
	}()
	waitGoroutines(t, "panicking scheme", base)

	// The pipe a panic recycled still serves a normal run.
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}
