package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"mobisense"
	"mobisense/internal/core"
	"mobisense/internal/geom"
)

// measurement collects one untraced workload window.
type measurement struct {
	setup  []time.Duration // one entry per set-up repetition
	runS   []float64       // per-run latency, seconds
	runs   int             // simulation runs completed in the window
	window time.Duration   // measured wall time of the timed jobs
	alloc  uint64          // bytes allocated by the timed jobs

	attempted, ok int

	// coverage and connected describe the workload's fixed reference set
	// (the warm-up pass), so they repeat exactly for a given seed:
	// per run, the final coverage and the share of sensors connected to
	// the base station.
	coverage  []float64
	connected []float64
}

// check records one operation's outcome; it returns ok for chaining.
func (m *measurement) check(ok bool) bool {
	m.attempted++
	if ok {
		m.ok++
	}
	return ok
}

func (m measurement) result() result {
	okFrac := 0.0
	if m.attempted > 0 {
		okFrac = float64(m.ok) / float64(m.attempted)
	}
	runs := m.runs
	if runs == 0 {
		runs = 1
	}
	secs := m.window.Seconds()
	vals := map[string]float64{
		"setup_s":          median(durSeconds(m.setup)),
		"run_s_p50":        median(m.runS),
		"runs_per_s":       float64(m.runs) / secs,
		"alloc_mb_per_run": float64(m.alloc) / 1e6 / float64(runs),
		"max_rss_mb":       maxRSSMB(),
		"ok_frac":          okFrac,
		"coverage_mean":    mean(m.coverage),
		"connected_frac":   mean(m.connected),
	}
	return newResult(endToEnd, vals, m.attempted, m.attempted-m.ok)
}

// newResult assembles the output line for the given metric table.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) result {
	out := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// connectedShare returns the share of a final layout's sensors that are
// unit-disk reachable from the field's base station at range rc.
func connectedShare(r mobisense.Result, f mobisense.Field, rc float64) float64 {
	if len(r.Positions) == 0 {
		return 0
	}
	spec := f.Spec()
	base := geom.V(spec.Bounds.MinX, spec.Bounds.MinY)
	if spec.Reference != nil {
		base = geom.V(spec.Reference.X, spec.Reference.Y)
	}
	layout := make([]geom.Vec, len(r.Positions))
	for i, p := range r.Positions {
		layout[i] = geom.V(p.X, p.Y)
	}
	n := 0
	for _, ok := range core.UnitDiskReachable(layout, base, rc) {
		if ok {
			n++
		}
	}
	return float64(n) / float64(len(layout))
}

// timeOnce runs one set-up and returns its state and duration.
func timeOnce[T any](build func() (T, error)) (T, time.Duration, error) {
	start := time.Now()
	st, err := build()
	if err != nil {
		return st, 0, fmt.Errorf("set-up: %w", err)
	}
	return st, time.Since(start), nil
}

// timeJob runs one timed job and adds its wall time and allocations to
// the window. Work between jobs (set-up repetitions, cleanup) stays out.
func (m *measurement) timeJob(fn func() error) (time.Duration, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	m.window += d
	m.alloc += after.TotalAlloc - before.TotalAlloc
	return d, err
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// splitmix64 derives well-spread seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed maps (workload seed, index) to a small positive run seed.
func deriveSeed(seed uint64, i int) uint64 {
	return splitmix64(seed*1_000_003+uint64(i))%1_000_000_000 + 1
}
