// Package matching implements the Hungarian algorithm for the minimum-cost
// assignment problem. The paper (§6.2) uses it to compute lower-bound
// moving distances: matching initial sensor positions to target layout
// positions with minimum total distance.
//
// The implementation is the O(n³) shortest-augmenting-path formulation with
// dual potentials (Jonker–Volgenant style), operating on a rectangular cost
// matrix with rows ≤ columns.
package matching

import (
	"errors"
	"fmt"
	"math"

	"mobisense/internal/geom"
)

// ErrShape is returned when the cost matrix is empty, ragged, or has more
// rows than columns.
var ErrShape = errors.New("matching: cost matrix must be non-empty, rectangular, with rows <= cols")

// Solve computes a minimum-cost assignment of each row to a distinct
// column. It returns assignment[r] = column assigned to row r, and the
// total cost.
func Solve(cost [][]float64) (assignment []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, ErrShape
	}
	m := len(cost[0])
	if m < n {
		return nil, 0, ErrShape
	}
	for i, row := range cost {
		if len(row) != m {
			return nil, 0, fmt.Errorf("%w: row %d has %d entries, want %d", ErrShape, i, len(row), m)
		}
		for j, c := range row {
			if math.IsNaN(c) {
				return nil, 0, fmt.Errorf("matching: cost[%d][%d] is NaN", i, j)
			}
		}
	}

	// Potentials and matching arrays are 1-indexed internally, following
	// the classical formulation.
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	matchCol := make([]int, m+1) // matchCol[j] = row matched to column j, 0 if free
	way := make([]int, m+1)

	for i := 1; i <= n; i++ {
		matchCol[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := matchCol[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[matchCol[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if matchCol[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			matchCol[j0] = matchCol[j1]
			j0 = j1
		}
	}

	assignment = make([]int, n)
	for j := 1; j <= m; j++ {
		if matchCol[j] > 0 {
			assignment[matchCol[j]-1] = j - 1
		}
	}
	for r, c := range assignment {
		total += cost[r][c]
	}
	return assignment, total, nil
}

// SolvePoints assigns each source point to a distinct target point
// (len(targets) >= len(sources)) minimizing the total Euclidean distance.
// It returns the assignment and the total distance. This is the §6.2
// "minimum weighted bipartite matching" used for explosion lower bounds and
// optimal-pattern baselines.
func SolvePoints(sources, targets []Point) (assignment []int, total float64, err error) {
	if len(sources) == 0 || len(targets) < len(sources) {
		return nil, 0, ErrShape
	}
	cost := make([][]float64, len(sources))
	for i, s := range sources {
		row := make([]float64, len(targets))
		for j, t := range targets {
			row[j] = math.Hypot(s.X-t.X, s.Y-t.Y)
		}
		cost[i] = row
	}
	return Solve(cost)
}

// Point is a 2-D point: geom.Vec itself, so callers pass layouts without
// copying. geom is a stdlib-only leaf, so this package still depends on
// nothing else (useful for reuse and fuzzing).
type Point = geom.Vec
