package main

import (
	"fmt"
	"math"
	"time"

	"mobisense"
	"mobisense/internal/coverage"
	"mobisense/internal/field"
)

// gridSeeds is how many paper-grid jobs (one §6 comparison each) the
// workload cycles through; the warm-up pass runs each once. A job's time
// varies by about ±10% from seed to seed, so several seeds per
// invocation keep that out of the spread between invocations.
const gridSeeds = 4

// gridConfig is one paper-grid run: a scheme on a scenario at a seed. The
// seed also selects the generated obstacles of seeded scenarios.
type gridConfig struct {
	scheme   mobisense.Scheme
	scenario string
	seed     uint64
}

// gridJobs returns the paper-grid jobs: each is the §6 comparison at one
// seed — CPVF and FLOOR on the free field and three obstacle fields, plus
// the VOR, Minimax and OPT baselines on the free field. Scheme kinds are
// interleaved so every job mixes short and long runs evenly.
func gridJobs(seed uint64) [][]gridConfig {
	jobs := make([][]gridConfig, gridSeeds)
	for j := range jobs {
		s := deriveSeed(seed, j)
		c := func(scheme mobisense.Scheme, scenario string) gridConfig {
			return gridConfig{scheme, scenario, s}
		}
		jobs[j] = []gridConfig{
			c(mobisense.SchemeCPVF, "free"), c(mobisense.SchemeFLOOR, "free"), c(mobisense.SchemeVOR, "free"),
			c(mobisense.SchemeCPVF, "two-obstacles"), c(mobisense.SchemeFLOOR, "two-obstacles"), c(mobisense.SchemeMinimax, "free"),
			c(mobisense.SchemeCPVF, "random-obstacles"), c(mobisense.SchemeFLOOR, "random-obstacles"), c(mobisense.SchemeOPT, "free"),
			c(mobisense.SchemeCPVF, "campus"), c(mobisense.SchemeFLOOR, "campus"),
		}
	}
	return jobs
}

// fieldKey identifies one built field: unseeded scenarios share one field
// across seeds.
type fieldKey struct {
	scenario string
	seed     uint64
}

// gridEnv is the paper-grid set-up: every field the jobs use, as the
// public value mobisense.Run takes and as the internal geometry the traced
// stepper steps, plus each field's coverage estimator.
type gridEnv struct {
	pub map[fieldKey]mobisense.Field
	in  map[fieldKey]*field.Field
	est map[fieldKey]*coverage.Estimator
}

func keyOf(scenario string, seed uint64) (fieldKey, error) {
	sc, ok := mobisense.LookupScenario(scenario)
	if !ok {
		return fieldKey{}, fmt.Errorf("unknown scenario %q", scenario)
	}
	if !sc.Seeded {
		seed = 0
	}
	return fieldKey{scenario, seed}, nil
}

// buildFields builds, from their specs, every field the given scenarios
// need at the given seeds, and one coverage estimator per field — the
// work the library does once per field.
func buildFields(scenarios []string, seeds []uint64, res float64) (*gridEnv, error) {
	env := &gridEnv{
		pub: map[fieldKey]mobisense.Field{},
		in:  map[fieldKey]*field.Field{},
		est: map[fieldKey]*coverage.Estimator{},
	}
	for _, name := range scenarios {
		for _, seed := range seeds {
			k, err := keyOf(name, seed)
			if err != nil {
				return nil, err
			}
			if env.in[k] != nil {
				continue
			}
			sc, _ := mobisense.LookupScenario(name)
			f, err := sc.Spec.Build(seed)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", name, err)
			}
			env.in[k] = f
			env.est[k] = coverage.NewEstimator(f, res)
		}
	}
	return env, nil
}

// publicFields fills env.pub through the library's scenario registry.
func (env *gridEnv) publicFields() error {
	for k := range env.in {
		f, err := mobisense.BuildScenario(k.scenario, k.seed)
		if err != nil {
			return err
		}
		env.pub[k] = f
	}
	return nil
}

// gridSetup returns the paper-grid jobs and the set-up that builds every
// field they use with its coverage estimator.
func gridSetup(seed uint64) ([][]gridConfig, func() (*gridEnv, error)) {
	jobs := gridJobs(seed)
	var scenarios []string
	var seeds []uint64
	seen := map[string]bool{}
	for _, job := range jobs {
		seeds = append(seeds, job[0].seed)
		for _, c := range job {
			if !seen[c.scenario] {
				seen[c.scenario] = true
				scenarios = append(scenarios, c.scenario)
			}
		}
	}
	res := mobisense.DefaultConfig(mobisense.SchemeCPVF).CoverageRes
	return jobs, func() (*gridEnv, error) {
		env, err := buildFields(scenarios, seeds, res)
		if err != nil {
			return nil, err
		}
		return env, env.publicFields()
	}
}

// config expands a grid config into the library's paper-default Config.
func (env *gridEnv) config(c gridConfig, sz size) (mobisense.Config, error) {
	k, err := keyOf(c.scenario, c.seed)
	if err != nil {
		return mobisense.Config{}, err
	}
	cfg := mobisense.DefaultConfig(c.scheme)
	cfg.Field = env.pub[k]
	cfg.N = sz.N
	cfg.Duration = sz.Duration
	cfg.Seed = c.seed
	return cfg, nil
}

// outcome is the part of a run's result the output checks compare bit for
// bit.
type outcome struct {
	coverage, coverage2 float64
	avgMove, convTime   float64
	messages            int64
	connected           bool
}

func outcomeOf(r mobisense.Result) outcome {
	return outcome{r.Coverage, r.Coverage2, r.AvgMoveDistance, r.ConvergenceTime, r.Messages, r.Connected}
}

// plausible reports whether a run result is well formed: every sensor
// present, finite fractions in range, and CPVF connected (§4's
// guarantee). FLOOR's disconnection on obstacle fields is a known defect
// that connected_frac shows; it is not an output error.
func plausible(cfg mobisense.Config, r mobisense.Result) bool {
	if r.Alive != cfg.N || len(r.Positions) != cfg.N {
		return false
	}
	if !(r.Coverage > 0 && r.Coverage <= 1) || !(r.Coverage2 >= 0 && r.Coverage2 <= r.Coverage) {
		return false
	}
	if math.IsNaN(r.AvgMoveDistance) || math.IsInf(r.AvgMoveDistance, 0) {
		return false
	}
	return cfg.Scheme != mobisense.SchemeCPVF || r.Connected
}

// runPaperGrid measures paper-default runs through mobisense.Run, one at
// a time, cycling round-robin over the jobs. Each timed run must
// reproduce its warm-up result bit for bit. One set-up repetition runs
// before each timed job, so the set-up samples the same host phases as
// the runs.
func runPaperGrid(opt options) (measurement, error) {
	var m measurement
	jobs, setup := gridSetup(opt.seed)
	env, d, err := timeOnce(setup)
	if err != nil {
		return m, err
	}
	m.setup = append(m.setup, d)

	ref := map[gridConfig]outcome{}
	for _, job := range jobs {
		for _, c := range job {
			cfg, err := env.config(c, opt.size)
			if err != nil {
				return m, err
			}
			r, err := mobisense.Run(cfg)
			if !m.check(err == nil && plausible(cfg, r)) {
				continue
			}
			ref[c] = outcomeOf(r)
			m.coverage = append(m.coverage, r.Coverage)
			m.connected = append(m.connected, connectedShare(r, cfg.Field, cfg.Rc))
		}
	}

	start := time.Now()
	for j := 0; j == 0 || time.Since(start) < opt.window; j++ {
		_, d, err := timeOnce(setup)
		if err != nil {
			return m, err
		}
		m.setup = append(m.setup, d)
		_, err = m.timeJob(func() error {
			for _, c := range jobs[j%len(jobs)] {
				cfg, err := env.config(c, opt.size)
				if err != nil {
					return err
				}
				t0 := time.Now()
				r, err := mobisense.Run(cfg)
				m.runS = append(m.runS, time.Since(t0).Seconds())
				want, haveRef := ref[c]
				m.check(err == nil && haveRef && outcomeOf(r) == want)
				m.runs++
			}
			return nil
		})
		if err != nil {
			return m, err
		}
	}
	return m, nil
}
