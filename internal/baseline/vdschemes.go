package baseline

import (
	"fmt"
	"math/rand/v2"

	"mobisense/internal/field"
	"mobisense/internal/geom"
	"mobisense/internal/matching"
)

// VDConfig parameterizes a VOR or Minimax run (§6.1.2).
type VDConfig struct {
	// Rc and Rs are the communication and sensing ranges.
	Rc, Rs float64
	// Rounds is how many adjustment rounds run after the explosion; the
	// paper uses 10, "after which the coverage stabilizes".
	Rounds int
	// Explode enables the §6.2 explosion stage for clustered starts: the
	// sensors first disperse to a uniform random layout along
	// minimum-total-distance (Hungarian) routes.
	Explode bool
	// LocalKnowledge restricts Voronoi construction to rc-neighborhoods
	// (the realistic model). Disable to give the schemes perfect cells.
	LocalKnowledge bool
	// Seed drives the explosion target layout.
	Seed uint64
}

// DefaultVDConfig mirrors the paper's VOR/Minimax settings.
func DefaultVDConfig(rc, rs float64) VDConfig {
	return VDConfig{Rc: rc, Rs: rs, Rounds: 10, Explode: true, LocalKnowledge: true, Seed: 1}
}

// VDResult is the outcome of a VOR or Minimax run.
type VDResult struct {
	// Positions is the final layout.
	Positions []geom.Vec
	// PerSensor is each sensor's total moving distance, including the
	// explosion stage.
	PerSensor []float64
	// IncorrectCells is the number of sensors whose final local Voronoi
	// cell differs from the true cell (Figure 10's "Incorrect VD").
	IncorrectCells int
}

// AvgDistance returns the mean per-sensor moving distance.
func (r VDResult) AvgDistance() float64 {
	if len(r.PerSensor) == 0 {
		return 0
	}
	var sum float64
	for _, d := range r.PerSensor {
		sum += d
	}
	return sum / float64(len(r.PerSensor))
}

// vdRule computes one sensor's per-round target from its Voronoi cell.
type vdRule func(pos geom.Vec, cell geom.Polygon, rs float64) (geom.Vec, bool)

// vorRule moves toward the farthest Voronoi vertex, stopping where the
// sensing disk would touch it (Wang et al.'s VOR).
func vorRule(pos geom.Vec, cell geom.Polygon, rs float64) (geom.Vec, bool) {
	v, ok := FarthestVertex(cell, pos)
	if !ok {
		return geom.Vec{}, false
	}
	d := pos.Dist(v)
	if d <= rs {
		return pos, true // vertex already covered: no move needed
	}
	return v.Add(pos.Sub(v).Unit().Scale(rs)), true
}

// minimaxRule moves to the point minimizing the distance to the farthest
// cell vertex: the center of the minimal enclosing circle of the vertices.
func minimaxRule(pos geom.Vec, cell geom.Polygon, rs float64) (geom.Vec, bool) {
	if len(cell) == 0 {
		return geom.Vec{}, false
	}
	return geom.MinEnclosingCircle(cell).C, true
}

// RunVOR runs the VOR scheme of [14] from the given start layout on an
// obstacle-free field.
func RunVOR(f *field.Field, start []geom.Vec, cfg VDConfig) (VDResult, error) {
	return runVD(f, start, cfg, vorRule)
}

// RunMinimax runs the Minimax scheme of [14].
func RunMinimax(f *field.Field, start []geom.Vec, cfg VDConfig) (VDResult, error) {
	return runVD(f, start, cfg, minimaxRule)
}

func runVD(f *field.Field, start []geom.Vec, cfg VDConfig, rule vdRule) (VDResult, error) {
	if len(f.Obstacles()) != 0 {
		return VDResult{}, fmt.Errorf("baseline: VD-based schemes require an obstacle-free field (§6.4)")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 10
	}
	n := len(start)
	pos := make([]geom.Vec, n)
	copy(pos, start)
	moved := make([]float64, n)

	if cfg.Explode {
		targets, dists, err := Explode(f, pos, cfg.Seed)
		if err != nil {
			return VDResult{}, err
		}
		copy(pos, targets)
		copy(moved, dists)
	}

	bounds := f.Bounds()
	maxMove := cfg.Rc / 2 // per-round movement constraint (§6.1)
	for round := 0; round < cfg.Rounds; round++ {
		var cells []geom.Polygon
		if cfg.LocalKnowledge {
			cells = LocalCells(pos, cfg.Rc, bounds)
		} else {
			cells = TrueCells(pos, bounds)
		}
		next := make([]geom.Vec, n)
		for i := range pos {
			next[i] = pos[i]
			target, ok := rule(pos[i], cells[i], cfg.Rs)
			if !ok {
				continue
			}
			step := target.Sub(pos[i])
			if l := step.Len(); l > maxMove {
				step = step.Unit().Scale(maxMove)
			}
			next[i] = pos[i].Add(step).Clamp(bounds)
		}
		for i := range pos {
			moved[i] += pos[i].Dist(next[i])
			pos[i] = next[i]
		}
	}

	return VDResult{
		Positions:      pos,
		PerSensor:      moved,
		IncorrectCells: IncorrectCellCount(pos, cfg.Rc, bounds, 0.01),
	}, nil
}

// Explode computes the §6.2 explosion stage: a uniform random target
// layout over the whole field, assigned to the sensors by minimum-cost
// matching (Hungarian algorithm) so the stage costs the minimum total
// moving distance. It returns the target positions (per original sensor
// index) and each sensor's travel distance.
func Explode(f *field.Field, start []geom.Vec, seed uint64) ([]geom.Vec, []float64, error) {
	n := len(start)
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	targets := make([]geom.Vec, n)
	for i := range targets {
		targets[i] = f.RandomFreePoint(rng, f.Bounds())
	}
	assign, _, err := matching.SolvePoints(start, targets)
	if err != nil {
		return nil, nil, fmt.Errorf("baseline: explosion matching: %w", err)
	}
	out := make([]geom.Vec, n)
	dists := make([]float64, n)
	for i, j := range assign {
		out[i] = targets[j]
		dists[i] = start[i].Dist(targets[j])
	}
	return out, dists, nil
}

// MinMatchingDistance returns the per-sensor distances of the minimum-cost
// assignment from start to the first len(start) positions of layout; it is
// the Hungarian lower bound used twice in Figure 11 (optimal-pattern
// target and FLOOR's own final layout).
func MinMatchingDistance(start, layout []geom.Vec) ([]float64, error) {
	if len(layout) < len(start) {
		return nil, fmt.Errorf("baseline: layout has %d positions for %d sensors", len(layout), len(start))
	}
	assign, _, err := matching.SolvePoints(start, layout)
	if err != nil {
		return nil, err
	}
	dists := make([]float64, len(start))
	for i, j := range assign {
		dists[i] = start[i].Dist(layout[j])
	}
	return dists, nil
}
