package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sweepExp is one experiment of `etbench -experiment all`: how to run and
// render it exactly as etbench does, the scenario specs of its simulations
// in the order the experiment builds them, and how to read the jobs of each
// simulation back out of its rows (to keep the spec list faithful).
type sweepExp struct {
	name  string
	title string
	pool  bool // runs its cells on a runner pool
	specs []scenario.Spec
	run   func(opt experiments.Option) (out string, jobs []int, err error)
}

// render is how etbench prints one table.
func render(t *stats.Table) string { return t.Render() + "\n" }

// sweepExperiments lists the experiments of the `all` set on the paper's mesh
// sizes and controller counts, in etbench's order.
func sweepExperiments() []sweepExp {
	sizes := experiments.PaperMeshSizes()
	ctrls := experiments.PaperControllerCounts()
	qs := []float64{1, 1.5, 2, 3, 4}
	mappings := []string{scenario.MappingCheckerboard, scenario.MappingProportional,
		scenario.MappingRowMajor, scenario.MappingRandom}
	type combo struct{ battery, alg string }
	combos := []combo{
		{scenario.BatteryThinFilm, scenario.AlgorithmEAR}, {scenario.BatteryThinFilm, scenario.AlgorithmSDR},
		{scenario.BatteryIdeal, scenario.AlgorithmEAR}, {scenario.BatteryIdeal, scenario.AlgorithmSDR},
	}
	concurrency := []int{1, 2, 3, 4}
	fractions := []float64{0, 0.1, 0.2, 0.3}

	var exps []sweepExp
	add := func(e sweepExp) { exps = append(exps, e) }

	add(sweepExp{name: "fig2", title: experiments.Fig2Table(nil).Title,
		run: func(experiments.Option) (string, []int, error) {
			return render(experiments.Fig2Table(experiments.Fig2(20))), nil, nil
		}})

	e := sweepExp{name: "fig7", title: experiments.Fig7Table(nil).Title, pool: true}
	for _, n := range sizes {
		e.specs = append(e.specs, scenario.Spec{Mesh: n}, scenario.Spec{Mesh: n, Algorithm: scenario.AlgorithmSDR})
	}
	e.run = func(opt experiments.Option) (string, []int, error) {
		rows, err := experiments.Fig7(sizes, opt)
		var jobs []int
		for _, r := range rows {
			jobs = append(jobs, r.EARJobs, r.SDRJobs)
		}
		return render(experiments.Fig7Table(rows)), jobs, err
	}
	add(e)

	e = sweepExp{name: "table2", title: experiments.Table2Table(nil).Title, pool: true}
	for _, n := range sizes {
		e.specs = append(e.specs, scenario.Spec{Mesh: n, Battery: scenario.BatteryIdeal})
	}
	e.run = func(opt experiments.Option) (string, []int, error) {
		rows, err := experiments.Table2(sizes, opt)
		var jobs []int
		for _, r := range rows {
			jobs = append(jobs, r.EARJobs)
			if float64(r.EARJobs) > r.UpperBound {
				err = fmt.Errorf("table2 %dx%d: %d jobs above the Theorem-1 bound %.2f", r.Mesh, r.Mesh, r.EARJobs, r.UpperBound)
			}
		}
		return render(experiments.Table2Table(rows)), jobs, err
	}
	add(e)

	e = sweepExp{name: "fig8", title: experiments.Fig8Table(nil, ctrls).Title, pool: true}
	for _, n := range sizes {
		for _, c := range ctrls {
			e.specs = append(e.specs, scenario.Spec{Mesh: n, Controllers: c, FiniteControllers: true})
		}
	}
	e.run = func(opt experiments.Option) (string, []int, error) {
		rows, err := experiments.Fig8(sizes, ctrls, opt)
		var jobs []int
		for _, r := range rows {
			jobs = append(jobs, r.Jobs)
		}
		return render(experiments.Fig8Table(rows, ctrls)), jobs, err
	}
	add(e)

	e = sweepExp{name: "ablation-q", title: experiments.AblationQTable(nil).Title, pool: true}
	for _, n := range sizes {
		for _, q := range qs {
			e.specs = append(e.specs, scenario.Spec{Mesh: n, EARQ: q})
		}
	}
	e.run = func(opt experiments.Option) (string, []int, error) {
		rows, err := experiments.AblationEARWeight(sizes, qs, opt)
		var jobs []int
		for _, r := range rows {
			jobs = append(jobs, r.Jobs)
		}
		return render(experiments.AblationQTable(rows)), jobs, err
	}
	add(e)

	e = sweepExp{name: "ablation-mapping", title: experiments.AblationMappingTable(nil).Title, pool: true}
	for _, n := range sizes {
		for _, m := range mappings {
			e.specs = append(e.specs, scenario.Spec{Mesh: n, Mapping: m, MappingSeed: 1})
		}
	}
	e.run = func(opt experiments.Option) (string, []int, error) {
		rows, err := experiments.AblationMapping(sizes, opt)
		var jobs []int
		for _, r := range rows {
			jobs = append(jobs, r.Jobs)
		}
		return render(experiments.AblationMappingTable(rows)), jobs, err
	}
	add(e)

	e = sweepExp{name: "ablation-battery", title: experiments.AblationBatteryTable(nil).Title, pool: true}
	for _, n := range sizes {
		for _, c := range combos {
			e.specs = append(e.specs, scenario.Spec{Mesh: n, Algorithm: c.alg, Battery: c.battery})
		}
	}
	e.run = func(opt experiments.Option) (string, []int, error) {
		rows, err := experiments.AblationBattery(sizes, opt)
		var jobs []int
		for _, r := range rows {
			jobs = append(jobs, r.Jobs)
		}
		return render(experiments.AblationBatteryTable(rows)), jobs, err
	}
	add(e)

	e = sweepExp{name: "ablation-concurrency", title: experiments.AblationConcurrencyTable(nil).Title, pool: true}
	for _, n := range sizes {
		for _, j := range concurrency {
			e.specs = append(e.specs, scenario.Spec{Mesh: n, ConcurrentJobs: j})
		}
	}
	e.run = func(opt experiments.Option) (string, []int, error) {
		rows, err := experiments.AblationConcurrency(sizes, concurrency, opt)
		var jobs []int
		for _, r := range rows {
			jobs = append(jobs, r.JobsCompleted)
		}
		return render(experiments.AblationConcurrencyTable(rows)), jobs, err
	}
	add(e)

	e = sweepExp{name: "ablation-links", title: experiments.AblationLinkTable(nil).Title, pool: true}
	for _, n := range sizes {
		for _, f := range fractions {
			e.specs = append(e.specs,
				scenario.Spec{Mesh: n, FailedLinkFraction: f, FailedLinkSeed: 1},
				scenario.Spec{Mesh: n, Algorithm: scenario.AlgorithmSDR, FailedLinkFraction: f, FailedLinkSeed: 1})
		}
	}
	e.run = func(opt experiments.Option) (string, []int, error) {
		rows, err := experiments.AblationLinkFailures(sizes, fractions, opt)
		var jobs []int
		for _, r := range rows {
			jobs = append(jobs, r.EARJobs, r.SDRJobs)
		}
		return render(experiments.AblationLinkTable(rows)), jobs, err
	}
	add(e)
	return exps
}

// sweepSim is one simulation of the sweep with its committed key.
type sweepSim struct {
	key string
	sp  scenario.Spec
}

func sweepSims(exps []sweepExp) []sweepSim {
	var sims []sweepSim
	for _, e := range exps {
		for i, sp := range e.specs {
			sims = append(sims, sweepSim{key: fmt.Sprintf("%s/%d", e.name, i), sp: sp})
		}
	}
	return sims
}

// sweepPlan is the set-up of one paper-sweep run.
type sweepPlan struct {
	exps     []sweepExp
	order    []int             // execution order, drawn from the seed
	segments map[string]string // expected rendered output per experiment
	frames   int64             // simulated frames per pass
	sims     []sweepSim
	expected map[string]string
}

// setupSweep loads the committed expectations, builds the experiment list
// and its simulation specs, materialises every spec into a runnable config
// (so an invalid cell fails before timing starts), and draws the order.
func setupSweep(seed uint64) (*sweepPlan, error) {
	p := &sweepPlan{exps: sweepExperiments()}
	golden, err := goldenFile("paper-sweep.tables.txt")
	if err != nil {
		return nil, err
	}
	p.segments = map[string]string{}
	for i, e := range p.exps {
		start := strings.Index(golden, e.title+"\n")
		end := len(golden)
		if i+1 < len(p.exps) {
			end = strings.Index(golden, p.exps[i+1].title+"\n")
		}
		if start < 0 || end < start {
			return nil, fmt.Errorf("committed tables lack %s", e.name)
		}
		p.segments[e.name] = golden[start:end]
	}
	if p.expected, err = goldenMap("paper-sweep.sims.tsv"); err != nil {
		return nil, err
	}
	p.sims = sweepSims(p.exps)
	for _, s := range p.sims {
		exp, ok := p.expected[s.key]
		if !ok {
			return nil, fmt.Errorf("no committed result for %s", s.key)
		}
		var frames int64
		fmt.Sscanf(strings.Split(exp, "\t")[2], "%d", &frames)
		p.frames += frames
		st, err := s.sp.Strategy()
		if err != nil {
			return nil, err
		}
		if _, err := st.Config(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	p.order = rng.Perm(len(p.exps))
	return p, nil
}

// sweepPass is one run of the whole `all` set.
type sweepPass struct {
	wall     time.Duration
	poolWall time.Duration   // wall time inside pool experiments
	cells    []time.Duration // every pool cell
	serial   time.Duration   // fig2
}

// runSweepPass runs every experiment in the plan's order and checks each
// rendered table against the committed bytes. A wrong table fails all its
// cells, and a pool experiment that recorded no cell fails.
func runSweepPass(p *sweepPlan, workers int, r *report) sweepPass {
	var pass sweepPass
	start := time.Now()
	for _, i := range p.order {
		e := p.exps[i]
		spans := &trace.Spans{}
		t0 := time.Now()
		out, _, err := e.run(experiments.Options(experiments.WithWorkers(workers), experiments.WithSpans(spans)))
		d := time.Since(t0)
		var cells []time.Duration
		for _, s := range spans.Spans() {
			cells = append(cells, time.Duration(s.DurationNS))
		}
		if e.pool {
			pass.poolWall += d
			pass.cells = append(pass.cells, cells...)
		} else {
			pass.serial += d
			cells = []time.Duration{d}
		}
		var problem string
		switch {
		case err != nil:
			problem = fmt.Sprintf("%s: %v", e.name, err)
		case out != p.segments[e.name]:
			problem = e.name + ": rendered table differs from the committed one"
		case len(cells) == 0:
			problem = e.name + ": the runner recorded no cell"
		}
		// Every experiment counts at least once, so an error or a wrong
		// table is reported even when no cell was recorded.
		for range max(1, len(cells)) {
			if problem != "" {
				r.fail("%s", problem)
			} else {
				r.ok()
			}
		}
	}
	pass.wall = time.Since(start)
	return pass
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func runPaperSweep(cfg runConfig, r *report) error {
	setupFn := func() (*sweepPlan, error) { return setupSweep(cfg.seed) }
	plan, first, err := timeSetup(setupFn)
	if err != nil {
		return err
	}
	if cfg.trace {
		return tracePaperSweep(cfg, plan, r)
	}
	var (
		walls []float64
		total time.Duration
	)
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < cfg.seconds {
		pass := runSweepPass(plan, cfg.workers, r)
		walls = append(walls, pass.wall.Seconds())
		total += pass.wall
	}
	r.set("rss_peak_mb", peakRSSMiB(), unitMB)
	setup, err := setupMedian(first, setupReps, setupFn, nil)
	if err != nil {
		return err
	}
	// The request a user makes is the whole sweep (`etbench -experiment
	// all`), so as on big-mesh its latency is its median over the passes,
	// and the percentiles over the one distinct request all equal it. No
	// cache sits in front of a sweep: every request is a miss. Per-cell
	// latencies are a runner-layer number (runner.cell_p50_ms in the traced
	// run): a 10 ms cell moves by 20-30% from pass to pass with what the
	// other worker runs beside it, so a percentile over cells measures
	// that pairing more than the cells.
	latency := median(walls) * 1e3
	r.set("setup_s", setup, unitS)
	r.set("wall_s", median(walls), unitS)
	r.set("frames_per_s", float64(plan.frames)*float64(len(walls))/total.Seconds(), unitRate)
	r.set("req_per_s", float64(len(walls))/total.Seconds(), unitRate)
	r.set("req_p50_ms", latency, unitMS)
	r.set("req_p99_ms", latency, unitMS)
	r.set("miss_p50_ms", latency, unitMS)
	r.note("paper-sweep: %d passes, pass walls %v s, %d frames per pass", len(walls), walls, plan.frames)
	return nil
}

// tracePaperSweep is the traced run: one sweep pass for the runner layer,
// then every simulation of the sweep re-run outside the experiments package,
// once untraced and once with a probe, then the routing replay.
func tracePaperSweep(cfg runConfig, plan *sweepPlan, r *report) error {
	pass := runSweepPass(plan, cfg.workers, r)
	busy := 0.0
	for _, c := range pass.cells {
		busy += c.Seconds()
	}
	r.set("runner.cells", float64(len(pass.cells)), unitCount)
	r.set("runner.busy_s", busy, unitS)
	r.set("runner.utilization", busy/(float64(cfg.workers)*pass.poolWall.Seconds()), unitRatio)
	cellMS := durationsMS(pass.cells)
	r.set("runner.cell_p50_ms", median(cellMS), unitMS)
	r.set("runner.cell_max_ms", maxOf(cellMS), unitMS)
	// Every pool cell is a plain spec re-run below; only the serial fig2
	// curve (no simulation) is outside the re-run.
	r.set("trace.rerun_share", busy/(busy+pass.serial.Seconds()), unitRatio)

	_, wallU, err := rerun(plan.sims, cfg.workers, false)
	if err != nil {
		return err
	}
	traced, wallT, err := rerun(plan.sims, cfg.workers, true)
	if err != nil {
		return err
	}
	var (
		ps          phaseSums
		materialize time.Duration
		covered     int64
		simWall     time.Duration
		eligible    []simRun
	)
	for i, run := range traced {
		s := plan.sims[i]
		if got, want := summary(run.res), plan.expected[s.key]; got != want {
			r.fail("%s: result %q, committed %q", s.key, got, want)
		} else if err := checkInvariants(s.sp, run.res, theoremBound); err != nil {
			r.fail("%v", err)
		} else {
			r.ok()
		}
		ps.add(run.probe)
		materialize += run.materialize
		covered += run.materialize.Nanoseconds() + run.probe.phaseTotalNS()
		simWall += run.wall
		if replayable(s.sp, run.res) {
			eligible = append(eligible, run)
		}
	}
	rs := replayAll(eligible, cfg.workers)
	if rs.mismatch > 0 {
		r.fail("routing replay disagrees with the engine on %d of %d runs", rs.mismatch, len(eligible))
	}
	setReplay(r, rs)
	setPhases(r, ps, 1)
	r.set("core.materialize_s", materialize.Seconds(), unitS)
	var bodies [][]byte
	for _, s := range plan.sims {
		b, err := s.sp.CanonicalJSON()
		if err != nil {
			return err
		}
		bodies = append(bodies, b)
	}
	us, err := fingerprintUS(bodies)
	if err != nil {
		return err
	}
	r.set("scenario.fingerprint_us", us, unitUS)
	r.set("trace.overhead", wallT.Seconds()/wallU.Seconds(), unitRatio)
	r.set("trace.coverage", float64(covered)/float64(simWall.Nanoseconds()), unitRatio)
	zeroLayers(r, "serve.hit_n", "serve.miss_n", "serve.join_n", "serve.hit_p50_ms", "serve.miss_p50_ms",
		"serve.join_p50_ms", "serve.queue_wait_s", "store.hit_ratio", "store.puts", "store.evictions",
		"store.bytes", "campaign.replicates")
	r.note("paper-sweep trace: sweep pass %.3fs; re-run of %d simulations %.3fs untraced, %.3fs traced; %d replayed",
		pass.wall.Seconds(), len(plan.sims), wallU.Seconds(), wallT.Seconds(), len(eligible))
	return nil
}

// rerun simulates every spec on workers goroutines and returns the runs in
// input order with the wall time of the whole batch.
func rerun(sims []sweepSim, workers int, traced bool) ([]simRun, time.Duration, error) {
	runs := make([]simRun, len(sims))
	errs := make([]error, len(sims))
	start := time.Now()
	forEach(len(sims), workers, func(i int) {
		sp := sims[i].sp
		runs[i], errs[i] = simulate(sp, traced, traced && replayableSpec(sp))
	})
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", sims[i].key, err)
		}
	}
	return runs, wall, nil
}

// replayAll replays runs on workers goroutines and sums the results.
func replayAll(runs []simRun, workers int) replayStats {
	out := make([]replayStats, len(runs))
	forEach(len(runs), workers, func(i int) { out[i] = replay(runs[i]) })
	var total replayStats
	for _, rs := range out {
		total.add(rs)
	}
	return total
}
