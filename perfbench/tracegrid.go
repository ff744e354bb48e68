package main

import (
	"fmt"
	"time"

	"mobisense"
	"mobisense/internal/baseline"
	"mobisense/internal/core"
	"mobisense/internal/coverage"
	"mobisense/internal/cpvf"
	"mobisense/internal/field"
	"mobisense/internal/floor"
	"mobisense/internal/geom"
	"mobisense/internal/matching"
	"mobisense/internal/spatial"
)

// probeStride is how many periods apart the layouts and move segments
// replayed through the geometry and connectivity layers are taken.
const probeStride = 25

// gridTrace accumulates the traced paper-grid numbers that are not span
// times.
type gridTrace struct {
	events, messages, tracedRuns int
	// untraced and traced are the summed wall times of the same event
	// scheme runs through mobisense.Run and through the traced stepper.
	untraced, traced time.Duration
}

// params mirrors the core parameters mobisense.Run derives from a Config.
func params(cfg mobisense.Config, f *field.Field) core.Params {
	b := f.Bounds()
	init := b
	if cfg.ClusterInit {
		init = geom.R(b.Min.X, b.Min.Y, b.Min.X+b.W()/2, b.Min.Y+b.H()/2)
	}
	return core.Params{
		N:           cfg.N,
		Rc:          cfg.Rc,
		Rs:          cfg.Rs,
		Speed:       cfg.Speed,
		Period:      cfg.Period,
		Duration:    cfg.Duration,
		Seed:        cfg.Seed,
		PhaseJitter: 0.5,
		InitRegion:  init,
		CoverageRes: cfg.CoverageRes,
	}
}

// traceGridConfig runs one paper-grid config both through mobisense.Run
// and through the layers directly, under spans, and reports whether the
// two agree bit for bit.
func traceGridConfig(sp *spans, env *gridEnv, c gridConfig, sz size, gt *gridTrace) (bool, error) {
	cfg, err := env.config(c, sz)
	if err != nil {
		return false, err
	}
	k, _ := keyOf(c.scenario, c.seed)
	f, est := env.in[k], env.est[k]

	root := sp.begin("grid.run", 0)
	t0 := time.Now()
	res, err := mobisense.Run(cfg)
	untraced := time.Since(t0)
	sp.end(root, 1)
	if err != nil || !plausible(cfg, res) {
		return false, nil
	}
	p := params(cfg, f)
	switch c.scheme {
	case mobisense.SchemeCPVF, mobisense.SchemeFLOOR:
		gt.untraced += untraced
		return traceEventRun(sp, c.scheme, f, est, p, res, gt)
	case mobisense.SchemeVOR, mobisense.SchemeMinimax:
		return traceVD(sp, c.scheme, f, p, res)
	case mobisense.SchemeOPT:
		return traceOPT(sp, f, p, res)
	}
	return false, fmt.Errorf("no traced stepper for scheme %s", c.scheme)
}

// traceEventRun steps a CPVF or FLOOR world one period at a time under
// per-period spans, recording the layout after every period, then replays
// the recording through the spatial, field, connectivity and coverage
// layers. The final coverage, 2-coverage, connectivity and message count
// must equal mobisense.Run's.
func traceEventRun(sp *spans, scheme mobisense.Scheme, f *field.Field, est *coverage.Estimator, p core.Params, want mobisense.Result, gt *gridTrace) (bool, error) {
	start := time.Now()
	run := sp.begin("grid.traced_run", 0)
	w, err := core.NewWorld(f, p)
	if err != nil {
		return false, err
	}
	defer w.Release()
	var s core.Scheme
	if scheme == mobisense.SchemeCPVF {
		s = cpvf.New(cpvf.DefaultConfig())
	} else {
		s = floor.New(floor.DefaultConfig())
	}
	s.Attach(w)

	periods := int(p.Duration / p.Period)
	layouts := make([][]geom.Vec, 0, periods+1)
	layouts = append(layouts, w.Layout())
	tick := string(scheme) + ".tick"
	events := 0
	for k := 1; k <= periods; k++ {
		id := sp.begin(tick, run)
		n := stepTo(w, float64(k)*p.Period)
		sp.end(id, n)
		events += n
		id = sp.begin("grid.record", run)
		layouts = append(layouts, w.Layout())
		sp.end(id, 1)
	}
	if last := float64(periods) * p.Period; last < p.Duration {
		events += stepTo(w, p.Duration)
	}
	final := w.AliveLayout()
	id := sp.begin("grid.final_coverage", run)
	tr := est.AcquireTracker(p.Rs, len(final))
	tr.Seed(final, nil, 1)
	cov, cov2 := tr.Fraction(), tr.KFraction(2)
	tr.Release()
	sp.end(id, 1)
	connected := core.AllConnected(final, f.Reference(), p.Rc)
	messages := w.Msg.Total()
	sp.end(run, 1)
	gt.traced += time.Since(start)
	gt.events += events
	gt.messages += int(messages)
	gt.tracedRuns++

	ok := cov == want.Coverage && cov2 == want.Coverage2 && connected == want.Connected && messages == want.Messages
	replayed := replayLayouts(sp, f, est, p, layouts)
	return ok && replayed == want.Coverage, nil
}

// stepTo advances the world's engine to time t exactly as RunUntil(t)
// would — same events, same order — and returns how many events ran. A
// sentinel event at t marks the end of each pass; passes repeat until one
// runs no event, so events scheduled at exactly t also run.
func stepTo(w *core.World, t float64) int {
	fired := false
	sentinel := func() { fired = true }
	total := 0
	for {
		fired = false
		w.E.ScheduleAt(t, sentinel)
		pass := 0
		for w.E.Step() && !fired {
			pass++
		}
		total += pass
		if pass == 0 {
			return total
		}
	}
}

// replayLayouts drives the recorded per-period layouts through the
// layers a traced run leans on, and returns the coverage the replayed
// incremental tracker ends at.
func replayLayouts(sp *spans, f *field.Field, est *coverage.Estimator, p core.Params, layouts [][]geom.Vec) float64 {
	root := sp.begin("grid.replay", 0)
	defer sp.end(root, 1)

	// Coverage: one tracker sync per period, with the incremental
	// tracker's own policy — re-seed when more than half the fleet moved.
	tr := est.AcquireTracker(p.Rs, p.N)
	defer tr.Release()
	id := sp.begin("coverage.seed", root)
	tr.Seed(layouts[0], nil, 1)
	sp.end(id, 1)
	var moved []int
	for _, lay := range layouts[1:] {
		sync := sp.begin("coverage.sync", root)
		cost := 0
		moved = moved[:0]
		for i, q := range lay {
			if c := tr.UpdateCost(i, q, true); c > 0 {
				cost += c
				moved = append(moved, i)
			}
		}
		if cost > len(lay) {
			id := sp.begin("coverage.seed", sync)
			tr.Seed(lay, nil, 1)
			sp.end(id, 1)
		} else {
			id := sp.begin("coverage.update", sync)
			for _, i := range moved {
				tr.Set(i, lay[i])
			}
			sp.end(id, len(moved))
		}
		sp.end(sync, 1)
	}

	// Neighbour queries, reachability and move segments on every
	// probeStride-th layout.
	ix := spatial.NewBounded(p.Rc, f.Bounds(), p.N)
	defer ix.Release()
	obstacles := len(f.Obstacles()) > 0
	var segs []geom.Segment
	for k := probeStride; k < len(layouts); k += probeStride {
		lay := layouts[k]
		for i, q := range lay {
			ix.Insert(i, q)
		}
		found := 0
		id := sp.begin("spatial.neighbors", root)
		for _, q := range lay {
			ix.ForNeighbors(q, p.Rc, func(int, geom.Vec) { found++ })
		}
		sp.end(id, len(lay))
		for i := range lay {
			ix.Remove(i)
		}

		id = sp.begin("core.reachable", root)
		core.UnitDiskReachable(lay, f.Reference(), p.Rc)
		sp.end(id, 1)

		if obstacles {
			segs = segs[:0]
			for i, q := range lay {
				if prev := layouts[k-1][i]; prev != q {
					segs = append(segs, geom.Seg(prev, q))
				}
			}
			id = sp.begin("field.first_hit", root)
			for _, s := range segs {
				f.FirstHit(s)
			}
			sp.end(id, len(segs))
		}
	}
	return tr.Fraction()
}

// traceVD times the VOR or Minimax baseline on the run's initial layout;
// its final layout must equal mobisense.Run's.
func traceVD(sp *spans, scheme mobisense.Scheme, f *field.Field, p core.Params, want mobisense.Result) (bool, error) {
	starts, err := initialLayout(f, p)
	if err != nil {
		return false, err
	}
	cfg := baseline.DefaultVDConfig(p.Rc, p.Rs)
	cfg.Seed = p.Seed
	run := baseline.RunVOR
	name := "baseline.vor"
	if scheme == mobisense.SchemeMinimax {
		run, name = baseline.RunMinimax, "baseline.minimax"
	}
	id := sp.begin(name, 0)
	res, err := run(f, starts, cfg)
	sp.end(id, 1)
	if err != nil || len(res.Positions) != len(want.Positions) {
		return false, nil
	}
	for i, q := range res.Positions {
		if q.X != want.Positions[i].X || q.Y != want.Positions[i].Y {
			return false, nil
		}
	}
	return true, nil
}

// traceOPT times OPT's minimum-cost matching onto the strip pattern; the
// mean moving distance must equal mobisense.Run's.
func traceOPT(sp *spans, f *field.Field, p core.Params, want mobisense.Result) (bool, error) {
	starts, err := initialLayout(f, p)
	if err != nil {
		return false, err
	}
	pattern := baseline.StripPattern(f.Bounds(), p.N, p.Rc, p.Rs)
	var sum float64
	id := sp.begin("matching.solve", 0)
	if len(pattern) >= len(starts) {
		dists, err := baseline.MinMatchingDistance(starts, pattern)
		sp.end(id, 1)
		if err != nil {
			return false, nil
		}
		for _, d := range dists {
			sum += d
		}
	} else {
		src := make([]matching.Point, len(pattern))
		for i, q := range pattern {
			src[i] = matching.Point{X: q.X, Y: q.Y}
		}
		dst := make([]matching.Point, len(starts))
		for i, q := range starts {
			dst[i] = matching.Point{X: q.X, Y: q.Y}
		}
		_, total, err := matching.SolvePoints(src, dst)
		sp.end(id, 1)
		if err != nil {
			return false, nil
		}
		sum = total
	}
	return sum/float64(len(starts)) == want.AvgMoveDistance, nil
}

// initialLayout returns the deployment a run of these parameters starts
// from.
func initialLayout(f *field.Field, p core.Params) ([]geom.Vec, error) {
	w, err := core.NewWorld(f, p)
	if err != nil {
		return nil, err
	}
	defer w.Release()
	return w.Layout(), nil
}
