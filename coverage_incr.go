package mobisense

import (
	"runtime"
	"sync"

	"mobisense/internal/core"
	"mobisense/internal/coverage"
	"mobisense/internal/geom"
)

// covPipeDepth is how many snapshots may wait for the coverage worker.
// A full queue blocks the sampler, so a slow worker throttles the engine
// instead of buffering the run. A few slots absorb the sample-to-sample
// jitter between the two sides; deeper queues (16, 64) measured no
// faster on traced sweeps, because over a whole run the worker is the
// slower side and only holds more snapshots in memory.
const covPipeDepth = 3

// covPipe keeps a traced run's incremental coverage tracker in sync with
// the running world on a goroutine of its own, so the per-sample tracker
// work overlaps the simulation instead of sitting on its critical path.
//
// The engine side discovers dirty sensors through the world's per-node
// move epochs (bumped on every new step record, teleport, or failure)
// plus the step end times — schemes never call back into it — and hands
// the worker an O(N) snapshot: liveness, position and a dirty bit per
// sensor. The worker applies snapshots in order, so its integer cover
// counts, and therefore every fraction it reports, are exactly those of
// a synchronous sync at the same sample.
type covPipe struct {
	// Engine side: dirty discovery state.
	seen     []uint64 // last observed move epoch per sensor id
	lastSync float64
	sent     bool // at least one snapshot was handed over

	work chan *covSnap // engine -> worker, covPipeDepth deep
	free chan *covSnap // worker -> engine, holds every idle snapshot
	done chan struct{} // closed when the worker exits

	// Worker side; the engine reads them only after done is closed.
	t       *coverage.Tracker
	workers int // fan-out for full (seed/re-seed) evaluations
	seeded  bool
	cov     []float64 // Fraction at every recorded trace sample, in order
}

// covSnap is the world state of one sync point.
type covSnap struct {
	pos    []geom.Vec // position of every alive sensor (zero when failed)
	alive  []bool
	dirty  []bool // may have changed since the previous snapshot
	record bool   // a trace sample: the worker appends its Fraction to cov
}

// covPipes recycles pipes with their snapshot buffers across runs.
var covPipes sync.Pool

// startCovPipe acquires a tracker for a run over n sensors and starts its
// worker. The first snapshot seeds the tracker with a full (row-sharded)
// evaluation; later ones are applied incrementally or, when nearly
// everything moved, by a re-seed. stop must follow.
func startCovPipe(est *coverage.Estimator, rs float64, n, workers int) *covPipe {
	p, _ := covPipes.Get().(*covPipe)
	if p == nil {
		p = &covPipe{free: make(chan *covSnap, covPipeDepth+1)}
		for range covPipeDepth + 1 {
			p.free <- &covSnap{}
		}
	}
	p.seen = resize(p.seen, n)
	clear(p.seen)
	p.lastSync, p.sent = 0, false
	p.t = est.AcquireTracker(rs, n)
	p.workers, p.seeded = workers, false
	p.cov = p.cov[:0]
	p.work = make(chan *covSnap, covPipeDepth)
	p.done = make(chan struct{})
	go p.run()
	return p
}

// send snapshots the world at its current time for the worker. layout
// holds the alive sensors' current positions in id order (what
// SampleTrace and AliveLayout return), so no position is interpolated
// twice. A sensor is provably clean when its move epoch is unchanged and
// its current step record ended at or before the previous snapshot;
// everything else is marked dirty and re-applied through an exact
// position compare (Set is a no-op when the position is bit-equal).
func (p *covPipe) send(w *core.World, layout []geom.Vec, record bool) {
	s := <-p.free
	n := len(p.seen)
	s.pos, s.alive, s.dirty = resize(s.pos, n), resize(s.alive, n), resize(s.dirty, n)
	j := 0
	for i := range p.seen {
		s.alive[i] = w.Alive(i)
		s.pos[i] = geom.Vec{}
		if s.alive[i] {
			s.pos[i] = layout[j]
			j++
		}
		ep := w.MoveEpoch(i)
		s.dirty[i] = ep != p.seen[i] || w.StepEndTime(i) > p.lastSync
		p.seen[i] = ep
	}
	s.record = record
	p.lastSync = w.Now()
	p.sent = true
	p.work <- s
}

// run is the worker: it applies snapshots until the work channel closes.
func (p *covPipe) run() {
	defer close(p.done)
	for s := range p.work {
		p.apply(s)
		if s.record {
			p.cov = append(p.cov, p.t.Fraction())
		}
		p.free <- s
	}
}

// apply brings the tracker to a snapshot's state. Incremental application
// costs two disk-window scans per moved sensor, a full re-seed one scan
// per present sensor — so when more than half the fleet moved since the
// last snapshot (every transient tick of a converging scheme), apply
// re-seeds instead of updating. The counts are exact either way, so the
// crossover is pure policy and cannot affect results.
func (p *covPipe) apply(s *covSnap) {
	if p.seeded {
		cost, present := 0, 0
		for i, dirty := range s.dirty {
			if s.alive[i] {
				present++
			}
			if dirty {
				cost += p.t.UpdateCost(i, s.pos[i], s.alive[i])
			}
		}
		if cost <= present {
			for i, dirty := range s.dirty {
				switch {
				case !dirty:
				case s.alive[i]:
					p.t.Set(i, s.pos[i])
				default:
					p.t.Clear(i)
				}
			}
			return
		}
	}
	p.t.Seed(s.pos, s.alive, p.workers)
	p.seeded = true
}

// finish hands the worker the world's final state (layout is its
// AliveLayout), waits for it and returns the per-sample fractions and the
// final 1- and 2-coverage. ok is false when no sample was ever taken,
// leaving the tracker unseeded.
func (p *covPipe) finish(w *core.World, layout []geom.Vec) (samples []float64, cov, cov2 float64, ok bool) {
	if !p.sent {
		return nil, 0, 0, false
	}
	p.send(w, layout, false)
	p.wait()
	return p.cov, p.t.Fraction(), p.t.KFraction(2), true
}

// wait closes the work channel and blocks until the worker has applied
// everything queued and exited. Idempotent.
func (p *covPipe) wait() {
	if p.work != nil {
		close(p.work)
		<-p.done
		p.work = nil
	}
}

// stop ends the worker (if finish did not already) and recycles the
// tracker and the pipe. It is safe on every exit path of a run, panics
// included; a pipe that lost a snapshot to a panic mid-send is dropped
// rather than pooled short.
func (p *covPipe) stop() {
	p.wait()
	p.t.Release()
	p.t = nil
	if len(p.free) == cap(p.free) {
		covPipes.Put(p)
	}
}

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// seedWorkers picks the fan-out for cold/full coverage evaluations: 1
// inside batch sweeps (the run-level worker pool already saturates the
// machine), all CPUs for standalone runs. The choice cannot affect
// results — the row-sharded seed is bit-identical at any worker count.
func seedWorkers(cfg Config) int {
	if cfg.estimators != nil {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// coveragePair computes the 1- and 2-coverage fractions of a final
// layout: one seeded tracker pass when the incremental engine is on
// (Fraction and KFraction then read the same running counts), the two
// brute-force scans otherwise. Bit-identical either way.
func coveragePair(cfg Config, est *coverage.Estimator, layout []geom.Vec) (cov, cov2 float64) {
	if !coverage.IncrementalEnabled() {
		return est.Fraction(layout, cfg.Rs), est.KFraction(layout, cfg.Rs, 2)
	}
	t := est.AcquireTracker(cfg.Rs, len(layout))
	t.Seed(layout, nil, seedWorkers(cfg))
	cov, cov2 = t.Fraction(), t.KFraction(2)
	t.Release()
	return cov, cov2
}
