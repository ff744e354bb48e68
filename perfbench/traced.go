package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	istore "mobisense/internal/store"
)

// runTraced is the separate traced run behind the per-layer metrics. It
// exercises every layer whatever the workload name, so each per-layer
// metric is measured in every traced invocation: a traced paper-grid pass
// (the traced stepper, baselines and replayed layouts), traced sweeps at
// one and at nproc workers (batch, store, trace aggregation), and a traced
// service window. The window is split between the three parts; each runs
// at least one job.
func runTraced(ctx context.Context, opt options) (result, error) {
	sp := newSpans()
	vals := map[string]float64{}
	attempted, failed := 0, 0
	tally := func(ok bool) {
		attempted++
		if !ok {
			failed++
		}
	}

	// Paper grid: every config of a job through mobisense.Run and through
	// the traced stepper, which must agree bit for bit.
	jobs, setup := gridSetup(opt.seed)
	env, err := setup()
	if err != nil {
		return result{}, err
	}
	var gt gridTrace
	deadline := time.Now().Add(opt.window / 2)
	for j := 0; j == 0 || time.Now().Before(deadline); j++ {
		for _, c := range jobs[j%len(jobs)] {
			ok, err := traceGridConfig(sp, env, c, opt.size, &gt)
			if err != nil {
				return result{}, err
			}
			tally(ok)
		}
	}

	// Traced sweeps: alternate nproc and one worker for the scaling
	// efficiency, and re-append one store's records for the per-record
	// store costs.
	sw := tracedSweep(deriveSeed(opt.seed, 0), opt.size)
	nproc := runtime.NumCPU()
	var rateN, rate1 []float64
	deadline = time.Now().Add(opt.window * 3 / 10)
	for j := 0; j == 0 || time.Now().Before(deadline); j++ {
		for _, workers := range []int{nproc, 1} {
			dir := filepath.Join(opt.workDir, fmt.Sprintf("traced-sweep-%d-%d", j, workers))
			job, err := runSweepJob(ctx, sp, sw, workers, dir)
			if err != nil {
				return result{}, err
			}
			ok := job.checkRuns(nil)
			for k := range job.runs {
				tally(k < ok)
			}
			rate := float64(len(job.runs)) / job.runTime.Seconds()
			if workers == 1 {
				rate1 = append(rate1, rate)
			} else {
				rateN = append(rateN, rate)
			}
			if workers == nproc {
				recKB, err := reappendStore(sp, dir, filepath.Join(opt.workDir, fmt.Sprintf("reappend-%d", j)))
				if err != nil {
					return result{}, err
				}
				vals["store.record_kb"] = recKB
			}
			os.RemoveAll(dir)
		}
	}
	vals["batch.scaling_eff"] = median(rateN) / (float64(nproc) * median(rate1))

	// Service: the workload's client mix with spans around each request.
	svc, err := startService(opt.workDir)
	if err != nil {
		return result{}, err
	}
	clients := newClients(svc, sp, opt.size, deriveSeed(opt.seed, 1)<<20)
	drive(clients, opt.window/5)
	st := merged(clients)
	svc.close()
	attempted += st.attempted
	failed += st.attempted - st.ok

	stats := sp.stats()
	ms, us := time.Millisecond, time.Microsecond
	runs := float64(max(gt.tracedRuns, 1))
	vals["sim.events_per_run"] = float64(gt.events) / runs
	vals["core.messages_per_run"] = float64(gt.messages) / runs
	vals["cpvf.tick_ms"] = stats["cpvf.tick"].perSpan(ms)
	vals["floor.tick_ms"] = stats["floor.tick"].perSpan(ms)
	vals["spatial.neighbors_ns"] = stats["spatial.neighbors"].perOp(time.Nanosecond)
	vals["field.first_hit_ns"] = stats["field.first_hit"].perOp(time.Nanosecond)
	vals["core.reachable_us"] = stats["core.reachable"].perOp(us)
	vals["coverage.seed_ms"] = stats["coverage.seed"].perOp(ms)
	vals["coverage.update_us"] = stats["coverage.update"].perOp(us)
	vals["coverage.sync_ms"] = stats["coverage.sync"].totalPerSpan(ms)
	vals["baseline.vor_ms"] = stats["baseline.vor"].perSpan(ms)
	vals["baseline.minimax_ms"] = stats["baseline.minimax"].perSpan(ms)
	vals["matching.solve_ms"] = stats["matching.solve"].perSpan(ms)
	vals["store.append_us"] = stats["store.append"].perOp(us)
	vals["store.load_ms"] = stats["store.load"].perSpan(ms)
	vals["traceagg.aggregate_ms"] = stats["traceagg.aggregate"].perSpan(ms)
	vals["server.submit_ms"] = median(st.submitS) * 1e3
	vals["server.queue_wait_ms"] = median(st.waitS) * 1e3
	vals["server.records_ms"] = median(st.recordsS) * 1e3
	vals["server.cache_hit_ms"] = median(st.hitS) * 1e3
	if gt.untraced > 0 {
		vals["trace.overhead_frac"] = gt.traced.Seconds()/gt.untraced.Seconds() - 1
	}

	printLayerTable(opt, stats)
	if opt.spanFile != "" {
		if err := sp.write(opt.spanFile); err != nil {
			return result{}, err
		}
	}
	return newResult(perLayer, vals, attempted, failed), nil
}

// printLayerTable writes each span name's count, total and self time.
func printLayerTable(opt options, stats map[string]layerStat) {
	if opt.log == nil {
		return
	}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].self > stats[names[j]].self })
	fmt.Fprintf(opt.log, "%-22s %8s %10s %12s %12s\n", "span", "spans", "ops", "total_ms", "self_ms")
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(opt.log, "%-22s %8d %10d %12.1f %12.1f\n", n, s.spans, s.count,
			float64(s.total)/1e6, float64(s.self)/1e6)
	}
}

// reappendStore re-writes the records of the store at src into a fresh
// store at dst under a span, and returns the mean record size in KB.
func reappendStore(sp *spans, src, dst string) (float64, error) {
	m, recs, err := istore.ReadDir(src)
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("store %s has no records", src)
	}
	defer os.RemoveAll(dst)
	w, err := istore.Create(dst, m)
	if err != nil {
		return 0, err
	}
	id := sp.begin("store.append", 0)
	for i, rec := range recs {
		if err := w.Append(i, rec, 0); err != nil {
			sp.end(id, i)
			w.Close()
			return 0, err
		}
	}
	sp.end(id, len(recs))
	if err := w.Close(); err != nil {
		return 0, err
	}
	info, err := os.Stat(filepath.Join(dst, "records.jsonl"))
	if err != nil {
		return 0, err
	}
	return float64(info.Size()) / float64(len(recs)) / 1024, nil
}
