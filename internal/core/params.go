// Package core provides the shared simulation substrate for all deployment
// schemes: the sensor/world model (§3.1), per-period motion with
// piecewise-linear position interpolation, message accounting (§6.5), the
// connectivity tree (§4.1–4.2, §5.3), the lazy-movement strategy (§3.3) and
// unit-disk connectivity checks.
package core

import (
	"fmt"
	"math"

	"mobisense/internal/geom"
)

// Sentinel parent values used by the connectivity tree.
const (
	// NoParent marks a sensor with no parent (disconnected or root of a
	// detached fragment).
	NoParent = -1
	// BaseParent marks a sensor whose parent is the base station itself.
	BaseParent = -2
)

// Params holds the simulation parameters of §3.1/§4.3. All distances are in
// meters and times in seconds.
type Params struct {
	// N is the number of sensors.
	N int
	// Rc is the communication range (isotropic unit disk).
	Rc float64
	// Rs is the sensing range (isotropic unit disk).
	Rs float64
	// Speed is the maximum moving speed V.
	Speed float64
	// Period is the step period T: a sensor moves in a straight line at
	// uniform speed for one period, then re-decides.
	Period float64
	// Duration is the simulated time horizon.
	Duration float64
	// Seed seeds all randomness of a run.
	Seed uint64
	// PhaseJitter, in [0,1), staggers the sensors' period boundaries by a
	// uniform fraction of the period, realizing the asynchronous system of
	// §4.2. Zero means all sensors decide simultaneously.
	PhaseJitter float64
	// InitRegion is the region in which sensors are initially placed
	// uniformly at random (the paper's clustered distribution uses the
	// [0,500]² sub-area).
	InitRegion geom.Rect
	// CoverageRes is the grid resolution for coverage measurement.
	CoverageRes float64
}

// DefaultParams returns the paper's standard settings (§4.3): 240 sensors
// clustered in [0,500]², V = 2 m/s, T = 1 s, 750 s horizon, rc = 60 m,
// rs = 40 m.
func DefaultParams() Params {
	return Params{
		N:           240,
		Rc:          60,
		Rs:          40,
		Speed:       2,
		Period:      1,
		Duration:    750,
		Seed:        1,
		PhaseJitter: 0.5,
		InitRegion:  geom.R(0, 0, 500, 500),
		CoverageRes: 5,
	}
}

// Validate reports whether the parameters are usable. Real-valued
// parameters must be finite, and each comparison is written so that NaN
// fails it: a NaN range would otherwise run and report a plausible
// number, and an infinite horizon would never end.
func (p Params) Validate() error {
	switch {
	case p.N <= 0:
		return fmt.Errorf("core: N = %d, must be positive", p.N)
	case !finitePositive(p.Rc) || !finitePositive(p.Rs):
		return fmt.Errorf("core: ranges rc=%v rs=%v must be finite and positive", p.Rc, p.Rs)
	case !finitePositive(p.Speed):
		return fmt.Errorf("core: speed %v must be finite and positive", p.Speed)
	case !finitePositive(p.Period):
		return fmt.Errorf("core: period %v must be finite and positive", p.Period)
	case !(p.Duration >= 0) || math.IsInf(p.Duration, 1):
		return fmt.Errorf("core: duration %v must be finite and non-negative", p.Duration)
	case !(p.PhaseJitter >= 0 && p.PhaseJitter < 1):
		return fmt.Errorf("core: phase jitter %v must be in [0,1)", p.PhaseJitter)
	case !finitePositive(p.CoverageRes):
		return fmt.Errorf("core: coverage resolution %v must be finite and positive", p.CoverageRes)
	}
	return nil
}

// finitePositive reports whether x is a positive real number; NaN and
// +Inf both fail.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// MaxStep returns the maximum distance a sensor can travel in one period.
func (p Params) MaxStep() float64 { return p.Speed * p.Period }
