// Command deploy runs sensor deployments and reports their metrics, an
// ASCII layout map, and optionally a CSV of final positions. Schemes and
// scenarios resolve through the mobisense registries, and multi-run
// invocations fan out across cores via the batch runner.
//
// Sweeps can stream every finished run to an on-disk store (-store),
// survive Ctrl-C (finished runs persist; re-run with -resume to continue),
// stop deterministically after a number of runs (-max-runs), and split
// across machines (-shard i/n, one store per shard; merge the stores with
// cmd/report).
//
// Examples:
//
//	deploy -scheme floor
//	deploy -scheme cpvf -scenario two-obstacles -n 240 -rc 60 -rs 40
//	deploy -scheme vor -rc 240 -rs 60 -map=false
//	deploy -scheme floor -scenario random-obstacles -field-seed 7 -csv layout.csv
//	deploy -scheme floor -scenario disaster -runs 30 -workers 8
//	deploy -scheme floor -scenario random -runs 300 -store sweep/
//	deploy -scheme floor -scenario random -runs 300 -store sweep/ -resume
//	deploy -scheme floor -scenario random -runs 300 -store shard0/ -shard 0/2
//
// Generalized parameter axes sweep any built-in knob (rc, rs, speed,
// cpvf.delta, floor.ttl) as a cross-product; -axis repeats for multiple
// dimensions and -fixed-seed pairs every axis point on one initial
// deployment (the paper's parameter-study protocol):
//
//	deploy -scheme floor -axis rc=30,45,60 -runs 10
//	deploy -scheme cpvf -axis rc=40,60 -axis speed=1,2 -fixed-seed
//
// Custom environments load from declarative field-spec JSON files
// (-field): bounds, polygonal obstacles, the base-station reference
// point, and optionally a seeded random-obstacle generator. The store
// manifest embeds the spec, so the sweep reproduces anywhere:
//
//	deploy -scheme floor -field warehouse.json -runs 20 -store sweep/
//
// Per-tick run telemetry (-trace, stride in simulated seconds) samples
// coverage, connectivity and movement as the deployment unfolds: single
// runs print the series, sweeps persist it in store records for the
// serve dashboard's trace chart:
//
//	deploy -scheme floor -trace 25
//	deploy -scheme floor -trace 25 -trace-csv series.csv
//	deploy -scheme floor -trace 25 -trace-layouts -runs 10 -store sweep/
//	deploy -scheme floor -runs 30 -store sweep/ -trace 25
//
// Traced runs also report convergence metrics (time to 90%/99% of final
// coverage, time to stable connectivity, settling time and the movement
// cost at convergence); -trace-layouts additionally snapshots the sensor
// layout at every sample, which powers the serve dashboard's replay
// animation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"mobisense"
)

func main() {
	os.Exit(run())
}

func run() int {
	schemeNames := make([]string, 0, 8)
	for _, s := range mobisense.RegisteredSchemes() {
		schemeNames = append(schemeNames, string(s))
	}
	var (
		scheme    = flag.String("scheme", "floor", "deployment scheme: "+strings.Join(schemeNames, ", "))
		scenario  = flag.String("scenario", "free", "scenario: "+strings.Join(mobisense.ScenarioNames(), ", "))
		fieldKind = flag.String("field", "", "field-spec JSON file defining a custom environment (overrides -scenario); a registered scenario name is accepted as a deprecated alias for -scenario")
		fieldSeed = flag.Uint64("field-seed", 1, "seed for seeded scenarios/specs in single runs; sweeps (-runs > 1) derive fields from -seed")
		n         = flag.Int("n", 240, "number of sensors")
		rc        = flag.Float64("rc", 60, "communication range (m)")
		rs        = flag.Float64("rs", 40, "sensing range (m)")
		speed     = flag.Float64("speed", 2, "maximum speed (m/s)")
		duration  = flag.Float64("duration", 750, "simulated time (s)")
		seed      = flag.Uint64("seed", 1, "run seed (base seed for -runs > 1)")
		runs      = flag.Int("runs", 1, "number of repeated runs with derived seeds")
		workers   = flag.Int("workers", 0, "worker-pool size for -runs > 1 (0 = GOMAXPROCS)")
		uniform   = flag.Bool("uniform", false, "uniform initial distribution instead of clustered")
		osc       = flag.String("oscillation", "none", "CPVF oscillation avoidance: none, one-step, two-step")
		delta     = flag.Float64("delta", 4, "CPVF oscillation avoidance factor δ")
		ttl       = flag.Int("ttl", 0, "FLOOR invitation TTL in hops (0 = 0.2*N)")
		showMap   = flag.Bool("map", true, "print an ASCII layout map (single run only)")
		csvPath   = flag.String("csv", "", "write final positions CSV to this path (single run only)")
		storeDir  = flag.String("store", "", "stream finished runs to this store directory (-runs > 1)")
		layouts   = flag.Bool("store-layouts", false, "persist each run's initial and final sensor layouts in its store record (requires -store)")
		trace     = flag.Float64("trace", 0, "sample per-tick telemetry every this many simulated seconds (0 = off); single runs print the series, sweeps persist it in -store records")
		traceLay  = flag.Bool("trace-layouts", false, "capture the full sensor layout in every trace sample for replay animation (requires -trace)")
		traceLayN = flag.Int("trace-layout-stride", 0, "capture layouts only every Nth trace sample (0 or 1 = every; requires -trace-layouts)")
		traceCSV  = flag.String("trace-csv", "", "write the run's trace series as CSV to this path (single run only, requires -trace)")
		resume    = flag.Bool("resume", false, "continue an interrupted sweep in the -store directory")
		shardSpec = flag.String("shard", "", "run only shard i of n, as \"i/n\" (requires -store; merge with cmd/report)")
		maxRuns   = flag.Int("max-runs", 0, "stop dispatching after this many completed runs (0 = all); finished runs stay in the store")
		fixedSeed = flag.Bool("fixed-seed", false, "give every sweep run the -seed verbatim instead of derived seeds (paired axis points)")
	)
	var axes []mobisense.ParamAxis
	flag.Func("axis", "sweep a built-in axis as \"name=v1,v2,...\" ("+strings.Join(mobisense.AxisNames(), ", ")+"); string-valued axes take their values by name, e.g. cpvf.osc=none,two-step; repeatable",
		func(spec string) error {
			ax, err := mobisense.ParseAxis(spec)
			if err != nil {
				return err
			}
			axes = append(axes, ax)
			return nil
		})
	flag.Parse()

	scenarioExplicit := false
	flag.Visit(func(f *flag.Flag) { scenarioExplicit = scenarioExplicit || f.Name == "scenario" })
	scenarioName := *scenario
	var fieldSpec *mobisense.FieldSpec
	if *fieldKind != "" {
		// A regular file is a spec; anything else (including a directory
		// that happens to share a scenario's name) falls through to the
		// deprecated -field <scenario-name> alias.
		if st, statErr := os.Stat(*fieldKind); statErr == nil && st.Mode().IsRegular() {
			if scenarioExplicit {
				// Mirror the serve API: a request may name a scenario or
				// supply a field spec, never both silently.
				fmt.Fprintln(os.Stderr, "-scenario and a -field spec file conflict: pick one environment")
				return 2
			}
			spec, err := mobisense.LoadFieldSpecFile(*fieldKind)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			fieldSpec = &spec
		} else if _, ok := mobisense.LookupScenario(*fieldKind); ok {
			scenarioName = *fieldKind
		} else {
			fmt.Fprintf(os.Stderr, "-field %q is neither a readable spec file nor a scenario name (have %s)\n",
				*fieldKind, strings.Join(mobisense.ScenarioNames(), ", "))
			return 2
		}
	}
	if fieldSpec == nil {
		if _, ok := mobisense.LookupScenario(scenarioName); !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (have %s)\n",
				scenarioName, strings.Join(mobisense.ScenarioNames(), ", "))
			return 2
		}
	}
	shard, err := mobisense.ParseShard(*shardSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "-resume needs -store: there is nothing to resume from")
		return 2
	}
	if shard.Count > 1 && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "-shard needs -store: a shard's slice of the aggregates is useless unpersisted")
		return 2
	}
	if *layouts && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "-store-layouts needs -store: layouts persist in store records")
		return 2
	}
	if math.IsNaN(*trace) || math.IsInf(*trace, 0) || *trace < 0 {
		fmt.Fprintf(os.Stderr, "-trace stride must be a finite value >= 0, got %g\n", *trace)
		return 2
	}
	if *trace > 0 && (*runs > 1 || len(axes) > 0) && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "-trace in a sweep needs -store: the series persist in store records")
		return 2
	}
	if *traceLay && *trace == 0 {
		fmt.Fprintln(os.Stderr, "-trace-layouts needs -trace: there is no series to capture layouts into")
		return 2
	}
	if *traceLayN < 0 {
		fmt.Fprintf(os.Stderr, "-trace-layout-stride must be >= 0, got %d\n", *traceLayN)
		return 2
	}
	if *traceLayN > 1 && !*traceLay {
		fmt.Fprintln(os.Stderr, "-trace-layout-stride needs -trace-layouts: there are no layout samples to thin")
		return 2
	}
	if *traceCSV != "" && *trace == 0 {
		fmt.Fprintln(os.Stderr, "-trace-csv needs -trace: there is no series to write")
		return 2
	}
	if *traceCSV != "" && (*runs > 1 || len(axes) > 0) {
		fmt.Fprintln(os.Stderr, "-trace-csv is single-run only; sweeps export aggregated curves via report -traces")
		return 2
	}

	cfg := mobisense.DefaultConfig(mobisense.Scheme(*scheme))
	cfg.N = *n
	cfg.Rc = *rc
	cfg.Rs = *rs
	cfg.Speed = *speed
	cfg.Duration = *duration
	cfg.Seed = *seed
	cfg.ClusterInit = !*uniform
	cfg.CPVF = &mobisense.CPVFOptions{Oscillation: *osc, Delta: *delta}
	cfg.Floor = &mobisense.FloorOptions{TTL: *ttl}
	if *trace > 0 {
		cfg.Trace = &mobisense.TraceOptions{Stride: *trace, Layouts: *traceLay, LayoutStride: *traceLayN}
	}

	// Ctrl-C cancels the sweep; every finished run is kept (and persisted
	// when a store is attached).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *runs <= 1 && len(axes) == 0 {
		if *storeDir != "" || shard.Count > 1 {
			fmt.Fprintln(os.Stderr, "-store and -shard need a sweep: set -runs > 1 or add -axis")
			return 2
		}
		// For one run, honor -seed and -field-seed verbatim rather than
		// deriving, so single-run invocations stay reproducible by hand.
		var f mobisense.Field
		var err error
		if fieldSpec != nil {
			f, err = mobisense.BuildFieldSpec(*fieldSpec, *fieldSeed)
		} else {
			f, err = mobisense.BuildScenario(scenarioName, *fieldSeed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			return 1
		}
		cfg.Field = f
		out, err := mobisense.RunBatch(ctx, []mobisense.Config{cfg}, mobisense.BatchOptions{Workers: 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "run: %v\n", err)
			return 1
		}
		if err := out[0].Err; err != nil {
			fmt.Fprintf(os.Stderr, "run: %v\n", err)
			return 1
		}
		return printSingle(cfg, out[0].Result, *showMap, *csvPath, *traceCSV)
	}

	// Sweeps derive both run seeds and seeded-scenario fields from -seed
	// (-fixed-seed keeps run seeds verbatim for paired axis studies).
	sweep := mobisense.Sweep{
		Base:      cfg,
		Axes:      axes,
		Repeats:   *runs,
		Seed:      *seed,
		FixedSeed: *fixedSeed,
	}
	if fieldSpec != nil {
		// The spec is the environment axis; the base config carries a
		// field built from it (field-seed layout) so fingerprints match
		// the serve API's handling of the same inline spec.
		f, err := mobisense.BuildFieldSpec(*fieldSpec, *fieldSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "field: %v\n", err)
			return 1
		}
		sweep.Base.Field = f
		sweep.Field = fieldSpec
	} else {
		sweep.Scenarios = []string{scenarioName}
	}
	opts := mobisense.BatchOptions{
		Workers: *workers,
		Shard:   shard,
	}
	if *storeDir != "" {
		opts.Store = &mobisense.Store{Dir: *storeDir, Resume: *resume, Layouts: *layouts, Trace: *trace > 0}
	}
	// -max-runs cancels dispatch once enough runs completed — the
	// deterministic stand-in for Ctrl-C in scripts and CI.
	capCtx, capStop := context.WithCancel(ctx)
	defer capStop()
	completed := 0
	opts.OnProgress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
		completed++
		if *maxRuns > 0 && completed >= *maxRuns {
			capStop()
		}
	}
	sr, err := sweep.Run(capCtx, opts)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}
	if interrupted {
		fmt.Fprintln(os.Stderr)
	}
	printAggregates(sr)
	if interrupted {
		done := 0
		for _, br := range sr.Runs {
			if !errors.Is(br.Err, context.Canceled) {
				done++
			}
		}
		fmt.Fprintf(os.Stderr, "interrupted after %d/%d runs\n", done, len(sr.Runs))
		if *storeDir != "" {
			fmt.Fprintf(os.Stderr, "finished runs are stored in %s (re-run with -resume to continue)\n", *storeDir)
		}
		if *maxRuns > 0 && ctx.Err() == nil {
			return 0 // the -max-runs cap, not a Ctrl-C
		}
		return 130
	}
	// Surface every distinct failure cause, not just the first.
	counts := map[string]int{}
	var order []string
	for _, br := range sr.Runs {
		if br.Err != nil {
			msg := br.Err.Error()
			if counts[msg] == 0 {
				order = append(order, msg)
			}
			counts[msg]++
		}
	}
	for _, msg := range order {
		fmt.Fprintf(os.Stderr, "%d run(s) failed: %s\n", counts[msg], msg)
	}
	if len(order) > 0 {
		return 1
	}
	return 0
}

func printSingle(cfg mobisense.Config, res mobisense.Result, showMap bool, csvPath, traceCSV string) int {
	fmt.Printf("scheme           %s\n", res.Scheme)
	fmt.Printf("coverage         %.1f%%\n", 100*res.Coverage)
	fmt.Printf("avg distance     %.1f m\n", res.AvgMoveDistance)
	fmt.Printf("connected        %v\n", res.Connected)
	if res.Messages > 0 {
		fmt.Printf("messages         %d (%.1f per sensor per second)\n",
			res.Messages, float64(res.Messages)/float64(cfg.N)/cfg.Duration)
	}
	if res.ConvergenceTime > 0 {
		fmt.Printf("last movement    %.0f s\n", res.ConvergenceTime)
	}
	if res.Placements != nil {
		fmt.Printf("floor placements flg=%d blg=%d iflg=%d\n",
			res.Placements["flg"], res.Placements["blg"], res.Placements["iflg"])
	}
	if res.IncorrectVoronoiCells > 0 {
		fmt.Printf("incorrect cells  %d\n", res.IncorrectVoronoiCells)
	}
	fmt.Printf("wall time        %s\n", res.Elapsed.Round(1e6))

	if cfg.Trace != nil && len(res.Trace) == 0 {
		// The Voronoi/OPT baselines compute layouts outside the event loop;
		// say so instead of printing an empty table.
		fmt.Printf("\nscheme %s yields no trace (its layout is computed outside the event loop)\n", res.Scheme)
	}
	if len(res.Trace) > 0 {
		fmt.Println()
		fmt.Println("     t  coverage  connected  moving  total moved  max moved")
		for _, s := range res.Trace {
			fmt.Printf("%6.0f    %5.1f%%  %9d  %6d  %9.1f m  %7.1f m\n",
				s.Time, 100*s.Coverage, s.Connected, s.Moving, s.TotalMoved, s.MaxMoved)
		}
	}
	if c := res.Convergence; c != nil {
		fmt.Println()
		fmt.Printf("t90 coverage     %.0f s\n", c.TimeTo90Coverage)
		fmt.Printf("t99 coverage     %.0f s\n", c.TimeTo99Coverage)
		if c.TimeToConnectivity >= 0 {
			fmt.Printf("connectivity     %.0f s\n", c.TimeToConnectivity)
		} else {
			fmt.Println("connectivity     never (final layout not fully connected)")
		}
		fmt.Printf("settled          %.0f s (total %.1f m, max %.1f m)\n",
			c.SettlingTime, c.TotalMovedAtSettle, c.MaxMovedAtSettle)
	}

	if showMap {
		fmt.Println()
		fmt.Print(res.ASCIIMap(72))
	}
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(res.PositionsCSV()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write csv: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	if traceCSV != "" {
		if err := os.WriteFile(traceCSV, []byte(traceSeriesCSV(res.Trace)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write trace csv: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", traceCSV)
	}
	return 0
}

// traceSeriesCSV renders a single run's telemetry series as CSV.
func traceSeriesCSV(trace []mobisense.TraceSample) string {
	var sb strings.Builder
	sb.WriteString("t,coverage,connected,alive,moving,total_moved,max_moved\n")
	for _, s := range trace {
		fmt.Fprintf(&sb, "%s,%s,%d,%d,%d,%s,%s\n",
			strconv.FormatFloat(s.Time, 'g', -1, 64),
			strconv.FormatFloat(s.Coverage, 'f', 6, 64),
			s.Connected, s.Alive, s.Moving,
			strconv.FormatFloat(s.TotalMoved, 'f', 6, 64),
			strconv.FormatFloat(s.MaxMoved, 'f', 6, 64))
	}
	return sb.String()
}

func printAggregates(sr mobisense.SweepResult) {
	for _, a := range sr.Aggregates {
		scen := a.Scenario
		if scen == "" {
			scen = "(custom field)"
		}
		fmt.Printf("%s on %s, N=%d", a.Scheme, scen, a.N)
		for _, ax := range a.Axes {
			fmt.Printf(", %s=%s", ax.Name, ax.ValueString())
		}
		fmt.Printf(": %d runs", a.Runs)
		if a.Errors > 0 {
			fmt.Printf(" (%d failed)", a.Errors)
		}
		if a.Skipped > 0 {
			fmt.Printf(" (%d not executed)", a.Skipped)
		}
		fmt.Println()
		if a.Runs == 0 {
			continue
		}
		fmt.Printf("  coverage       %.1f%% ± %.1f  (min %.1f%%, max %.1f%%)\n",
			100*a.Coverage.Mean, 100*a.Coverage.CI95, 100*a.Coverage.Min, 100*a.Coverage.Max)
		fmt.Printf("  avg distance   %.1f m ± %.1f\n", a.AvgMoveDistance.Mean, a.AvgMoveDistance.CI95)
		if a.Messages.Mean > 0 {
			fmt.Printf("  messages       %.0f ± %.0f\n", a.Messages.Mean, a.Messages.CI95)
		}
		fmt.Printf("  connected      %.0f%% of runs\n", 100*a.ConnectedFraction)
	}
}
