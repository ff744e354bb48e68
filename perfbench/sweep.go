package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mobisense"
)

// sweepSeeds is how many distinct sweeps the traced-sweep workload cycles
// through; the warm-up pass runs each once. More than one keeps the
// seed-to-seed variation of a sweep out of the spread between
// invocations.
const sweepSeeds = 3

// sweepScenarios are the obstacle fields the traced sweeps run on.
var sweepScenarios = []string{"two-obstacles", "random-obstacles"}

// tracedSweep is the figure-curve sweep: CPVF and FLOOR on obstacle
// fields, traced at one sample per period.
func tracedSweep(seed uint64, sz size) mobisense.Sweep {
	base := mobisense.DefaultConfig(mobisense.SchemeCPVF)
	base.N = sz.N
	base.Duration = sz.Duration
	base.Trace = &mobisense.TraceOptions{Stride: base.Period}
	return mobisense.Sweep{
		Base:      base,
		Schemes:   []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR},
		Scenarios: sweepScenarios,
		Repeats:   1,
		Seed:      seed,
	}
}

// sweepJob is one completed traced sweep: run into a fresh store, loaded
// back and aggregated into mean curves.
type sweepJob struct {
	runs    []mobisense.BatchResult
	loaded  mobisense.StoreData
	aggs    []mobisense.TraceAggregate
	runTime time.Duration // Sweep.Run alone
}

// runSweepJob executes the sweep with the given worker count into a fresh
// store under dir, then loads the store and aggregates its traces. Spans
// (when sp is non-nil) cover the three public calls.
func runSweepJob(ctx context.Context, sp *spans, sw mobisense.Sweep, workers int, dir string) (sweepJob, error) {
	var job sweepJob
	start := time.Now()
	id := sp.begin("batch.sweep", 0)
	res, err := sw.Run(ctx, mobisense.BatchOptions{
		Workers: workers,
		Store:   &mobisense.Store{Dir: dir, Trace: true},
	})
	sp.end(id, len(res.Runs))
	runTime := time.Since(start)
	if err != nil {
		return job, fmt.Errorf("sweep: %w", err)
	}
	id = sp.begin("store.load", 0)
	data, err := mobisense.LoadStores(dir)
	sp.end(id, len(data.Runs))
	if err != nil {
		return job, fmt.Errorf("load store: %w", err)
	}
	id = sp.begin("traceagg.aggregate", 0)
	aggs := mobisense.AggregateTraces(data.Runs)
	sp.end(id, len(aggs))
	return sweepJob{runs: res.Runs, loaded: data, aggs: aggs, runTime: runTime}, nil
}

// checkRuns counts the runs of a sweep job that succeeded, round-trip
// through the store bit for bit, and (when ref is non-nil) equal the
// reference job's. It also requires one trace aggregate per scheme and
// scenario.
func (job sweepJob) checkRuns(ref *sweepJob) (ok int) {
	if len(job.aggs) != 2*len(sweepScenarios) || len(job.loaded.Runs) != len(job.runs) {
		return 0
	}
	for i, br := range job.runs {
		if br.Err != nil || len(br.Result.Trace) == 0 {
			continue
		}
		got := job.loaded.Runs[i]
		if got.Spec.Index != br.Spec.Index || !sameStored(br.Result, got.Result) {
			continue
		}
		if ref != nil && (i >= len(ref.runs) || !sameStored(ref.runs[i].Result, br.Result)) {
			continue
		}
		ok++
	}
	return ok
}

// sameStored compares the fields a store record persists.
func sameStored(a, b mobisense.Result) bool {
	if outcomeOf(a) != outcomeOf(b) || a.Alive != b.Alive || len(a.Trace) != len(b.Trace) {
		return false
	}
	for i := range a.Trace {
		x, y := a.Trace[i], b.Trace[i]
		if x.Time != y.Time || x.Coverage != y.Coverage || x.Connected != y.Connected || x.Alive != y.Alive ||
			x.Moving != y.Moving || x.TotalMoved != y.TotalMoved || x.MaxMoved != y.MaxMoved {
			return false
		}
	}
	if (a.Convergence == nil) != (b.Convergence == nil) {
		return false
	}
	return a.Convergence == nil || *a.Convergence == *b.Convergence
}

// sweepSetup returns the traced sweeps and the set-up that builds, from
// their specs, the fields they run on with their coverage estimators.
func sweepSetup(opt options) ([]mobisense.Sweep, func() (*gridEnv, error), error) {
	sweeps := make([]mobisense.Sweep, sweepSeeds)
	var seeds []uint64
	for i := range sweeps {
		sweeps[i] = tracedSweep(deriveSeed(opt.seed, i), opt.size)
		specs, err := sweeps[i].Expand()
		if err != nil {
			return nil, nil, err
		}
		for _, s := range specs {
			seeds = append(seeds, s.Seed)
		}
	}
	res := mobisense.DefaultConfig(mobisense.SchemeCPVF).CoverageRes
	return sweeps, func() (*gridEnv, error) {
		return buildFields(sweepScenarios, seeds, res)
	}, nil
}

// sweepWorkers is the worker count of the timed sweeps. On a shared
// host the second CPU's speed varies on its own, and two-worker
// throughput spread past the metrics' bounds; the traced run measures
// parallel scaling instead (batch.scaling_eff).
const sweepWorkers = 1

// runTracedSweep measures traced sweeps, each into a fresh store, loaded
// back and aggregated, cycling round-robin over the sweeps. One set-up
// repetition runs before each timed job.
func runTracedSweep(ctx context.Context, opt options) (measurement, error) {
	var m measurement
	sweeps, setup, err := sweepSetup(opt)
	if err != nil {
		return m, err
	}
	_, d, err := timeOnce(setup)
	if err != nil {
		return m, err
	}
	m.setup = append(m.setup, d)
	stores := 0
	nextDir := func() string {
		stores++
		return filepath.Join(opt.workDir, fmt.Sprintf("sweep-%d", stores))
	}

	refs := make([]*sweepJob, len(sweeps))
	for i, sw := range sweeps {
		dir := nextDir()
		job, err := runSweepJob(ctx, nil, sw, sweepWorkers, dir)
		os.RemoveAll(dir)
		if err != nil {
			m.check(false)
			continue
		}
		ok := job.checkRuns(nil)
		for k := range job.runs {
			m.check(k < ok)
		}
		if ok == len(job.runs) {
			refs[i] = &job
		}
		for _, br := range job.runs {
			m.coverage = append(m.coverage, br.Result.Coverage)
			m.connected = append(m.connected, connectedShare(br.Result, br.Spec.Config.Field, br.Spec.Config.Rc))
		}
	}

	start := time.Now()
	for j := 0; j == 0 || time.Since(start) < opt.window; j++ {
		_, d, err := timeOnce(setup)
		if err != nil {
			return m, err
		}
		m.setup = append(m.setup, d)
		i := j % len(sweeps)
		dir := nextDir()
		var job sweepJob
		_, err = m.timeJob(func() error {
			job, err = runSweepJob(ctx, nil, sweeps[i], sweepWorkers, dir)
			return err
		})
		os.RemoveAll(dir)
		if err != nil {
			m.check(false)
			continue
		}
		ok := 0
		if refs[i] != nil {
			ok = job.checkRuns(refs[i])
		}
		for k, br := range job.runs {
			m.check(k < ok)
			m.runS = append(m.runS, br.Result.Elapsed.Seconds())
		}
		m.runs += len(job.runs)
	}
	return m, nil
}
