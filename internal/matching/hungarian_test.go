package matching

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

func TestSolveKnownCases(t *testing.T) {
	tests := []struct {
		name      string
		cost      [][]float64
		wantTotal float64
	}{
		{
			name:      "1x1",
			cost:      [][]float64{{7}},
			wantTotal: 7,
		},
		{
			name: "classic 3x3",
			cost: [][]float64{
				{4, 1, 3},
				{2, 0, 5},
				{3, 2, 2},
			},
			wantTotal: 5, // 1 + 2 + 2
		},
		{
			name: "diagonal optimal",
			cost: [][]float64{
				{1, 100, 100},
				{100, 1, 100},
				{100, 100, 1},
			},
			wantTotal: 3,
		},
		{
			name: "anti-diagonal optimal",
			cost: [][]float64{
				{100, 100, 1},
				{100, 1, 100},
				{1, 100, 100},
			},
			wantTotal: 3,
		},
		{
			name: "rectangular 2x4",
			cost: [][]float64{
				{10, 10, 1, 10},
				{2, 10, 10, 10},
			},
			wantTotal: 3,
		},
		{
			name: "negative costs",
			cost: [][]float64{
				{-5, 0},
				{0, -5},
			},
			wantTotal: -10,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			assign, total, err := Solve(tt.cost)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if math.Abs(total-tt.wantTotal) > 1e-9 {
				t.Errorf("total = %v, want %v (assign %v)", total, tt.wantTotal, assign)
			}
			seen := make(map[int]bool)
			for r, c := range assign {
				if c < 0 || c >= len(tt.cost[0]) {
					t.Errorf("row %d assigned out-of-range column %d", r, c)
				}
				if seen[c] {
					t.Errorf("column %d assigned twice", c)
				}
				seen[c] = true
			}
		})
	}
}

func TestSolveShapeErrors(t *testing.T) {
	cases := [][][]float64{
		{},            // empty
		{{1, 2}, {3}}, // ragged
		{{1}, {2}},    // more rows than cols
	}
	for i, cost := range cases {
		if _, _, err := Solve(cost); !errors.Is(err, ErrShape) {
			t.Errorf("case %d: err = %v, want ErrShape", i, err)
		}
	}
	if _, _, err := Solve([][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN cost should error")
	}
}

// bruteForce finds the optimal assignment by exhaustive permutation, for
// verifying small instances.
func bruteForce(cost [][]float64) float64 {
	n := len(cost)
	m := len(cost[0])
	best := math.Inf(1)
	perm := make([]int, 0, n)
	used := make([]bool, m)
	var rec func(row int, acc float64)
	rec = func(row int, acc float64) {
		// No partial-cost pruning: costs may be negative.
		if row == n {
			best = math.Min(best, acc)
			return
		}
		for c := 0; c < m; c++ {
			if used[c] {
				continue
			}
			used[c] = true
			perm = append(perm, c)
			rec(row+1, acc+cost[row][c])
			perm = perm[:len(perm)-1]
			used[c] = false
		}
	}
	rec(0, 0)
	return best
}

// Property: Solve matches brute force on random small instances.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(6)
		m := n + rng.IntN(3)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = math.Floor(rng.Float64()*200-50) / 2
			}
		}
		_, total, err := Solve(cost)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForce(cost)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: total %v, brute force %v (cost %v)", trial, total, want, cost)
		}
	}
}

// Property: the optimal total never exceeds the identity assignment's cost.
func TestSolveNeverWorseThanIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 2))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.IntN(30)
		cost := make([][]float64, n)
		var identity float64
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = rng.Float64() * 100
			}
			identity += cost[i][i]
		}
		_, total, err := Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		if total > identity+1e-9 {
			t.Fatalf("trial %d: total %v worse than identity %v", trial, total, identity)
		}
	}
}

func TestSolvePoints(t *testing.T) {
	sources := []Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	targets := []Point{{X: 10, Y: 1}, {X: 0, Y: 1}}
	assign, total, err := SolvePoints(sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 || assign[1] != 0 {
		t.Errorf("assignment = %v, want [1 0]", assign)
	}
	if math.Abs(total-2) > 1e-9 {
		t.Errorf("total = %v, want 2", total)
	}
}

func TestSolvePointsShapeError(t *testing.T) {
	if _, _, err := SolvePoints(nil, nil); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := SolvePoints([]Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, []Point{{X: 0, Y: 0}}); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v", err)
	}
}

func BenchmarkSolve240(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	n := 240
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 1000
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(cost); err != nil {
			b.Fatal(err)
		}
	}
}
