package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the report reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadinessReport runs the given workloads (default: those BENCHMARK.json
// lists) reps times each as child processes —
// the order alternating each round, with an optional pause between rounds
// — and prints, per workload and end-to-end metric, the median, quartiles
// and range of the per-run values. The spread is the interquartile range
// over the median; a metric whose spread exceeds its BENCHMARK.json bound
// is flagged. Each round uses its own seed (seed+round), so the spread
// includes the variation between inputs.
func steadinessReport(out io.Writer, workloads []string, reps int, seed uint64, seconds float64, gap time.Duration) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("report: BENCHMARK.json: %w", err)
	}
	if len(workloads) == 0 {
		for _, w := range bf.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# env", envStamp(seed))
	values := map[string]map[string][]float64{}
	for r := 0; r < reps; r++ {
		order := append([]string(nil), workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := runChild(self, w, seed+uint64(r), seconds)
			if err != nil {
				return err
			}
			if !res.Correct {
				fmt.Fprintf(out, "# %s seed %d: correct=false (%d of %d failed)\n", w, seed+uint64(r), res.Failed, res.Attempted)
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			fmt.Fprintf(out, "# round %d %s done\n", r, w)
		}
		if gap > 0 && r+1 < reps {
			time.Sleep(gap)
		}
	}
	flagged := 0
	fmt.Fprintf(out, "%-13s %-17s %12s %12s %12s %12s %12s %7s %6s %6s\n",
		"workload", "metric", "median", "q1", "q3", "min", "max", "spread", "bound", "drift")
	for _, w := range workloads {
		for _, d := range bf.EndToEnd {
			xs := values[w][d.Name]
			q1, med, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			// drift compares the medians of the first and second half of
			// the runs, as two separate sets of runs would.
			half := len(xs) / 2
			drift := 0.0
			if a := median(xs[:half]); half > 0 && a != 0 {
				drift = (median(xs[half:]) - a) / a
			}
			flag := ""
			if d.Name != "setup_s" && spread > d.Bound {
				flag = "  SPREAD>BOUND"
				flagged++
			}
			fmt.Fprintf(out, "%-13s %-17s %12.6g %12.6g %12.6g %12.6g %12.6g %7.3f %6.2f %+6.3f%s\n",
				w, d.Name, med, q1, q3, minOf(xs), maxOf(xs), spread, d.Bound, drift, flag)
		}
	}
	if flagged > 0 {
		fmt.Fprintf(out, "# %d metric(s) spread beyond their bound: drop them from BENCHMARK.json\n", flagged)
	}
	return nil
}

// runChild runs one benchmark invocation and parses its result line.
func runChild(self, workload string, seed uint64, seconds float64) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// quartiles returns Q1, the median and Q3 by the exclusive method, which
// is what Python's statistics.quantiles(xs, n=4) computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) < 2 {
		v := median(xs)
		return v, v, v
	}
	s := sortedCopy(xs)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1) // 1-based position
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), median(xs), at(0.75)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[0]
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[len(s)-1]
}
