package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// bigMeshFailedLinks is the share of woven links the seed breaks before the
// run: the only input the seed draws for big-mesh.
const bigMeshFailedLinks = 0.02

// bigMeshSpec is the registry's big-mesh-16 with a static link-failure
// pattern drawn from the seed.
func bigMeshSpec(seed uint64) (scenario.Spec, error) {
	sp, ok := scenario.Lookup("big-mesh-16")
	if !ok {
		return sp, fmt.Errorf("scenario big-mesh-16 is not registered")
	}
	sp.FailedLinkFraction, sp.FailedLinkSeed = bigMeshFailedLinks, seed
	return sp, nil
}

// bigMeshPlan is the set-up of one big-mesh run.
type bigMeshPlan struct {
	sp       scenario.Spec
	expected string // committed result, default seed only
}

// setupBigMesh derives the spec, materialises it into a runnable config and
// builds a simulator from it, so a bad spec fails before timing starts.
func setupBigMesh(seed uint64) (bigMeshPlan, error) {
	var p bigMeshPlan
	var err error
	if p.sp, err = bigMeshSpec(seed); err != nil {
		return p, err
	}
	if seed == defaultSeed {
		exp, err := goldenMap("big-mesh.tsv")
		if err != nil {
			return p, err
		}
		p.expected = exp[strconv.FormatUint(seed, 10)]
	}
	st, err := p.sp.Strategy()
	if err != nil {
		return p, err
	}
	cfg, err := st.Config()
	if err != nil {
		return p, err
	}
	_, err = sim.New(cfg)
	return p, err
}

// bigMeshChecker verifies every run: the committed result for the default
// seed, the invariants for any seed, and identical bytes across repeats.
type bigMeshChecker struct {
	plan  bigMeshPlan
	first []byte
}

func (c *bigMeshChecker) check(res sim.Result, r *report) {
	b, err := json.Marshal(res)
	switch {
	case err != nil:
		r.fail("big-mesh: %v", err)
	case c.plan.expected != "" && summary(res) != c.plan.expected:
		r.fail("big-mesh: result %q, committed %q", summary(res), c.plan.expected)
	case res.Reason != sim.DeathMaxCycles:
		r.fail("big-mesh: run ended by %s before its frame bound", res.Reason)
	case c.first != nil && !bytes.Equal(b, c.first):
		r.fail("big-mesh: a repeat of the same spec produced different bytes")
	default:
		if err := checkInvariants(c.plan.sp, res, theoremBound); err != nil {
			r.fail("big-mesh: %v", err)
			return
		}
		c.first = b
		r.ok()
	}
}

func runBigMesh(cfg runConfig, r *report) error {
	setupFn := func() (bigMeshPlan, error) { return setupBigMesh(cfg.seed) }
	plan, first, err := timeSetup(setupFn)
	if err != nil {
		return err
	}
	chk := &bigMeshChecker{plan: plan}
	if cfg.trace {
		return traceBigMesh(plan, chk, r)
	}
	var (
		walls  []float64
		total  time.Duration
		frames int64
	)
	start := time.Now()
	for len(walls) < 2 || time.Since(start) < cfg.seconds {
		t0 := time.Now()
		res, err := plan.sp.Simulate()
		d := time.Since(t0)
		if err != nil {
			return err
		}
		chk.check(res, r)
		walls = append(walls, d.Seconds())
		total += d
		frames += res.Frames
	}
	r.set("rss_peak_mb", peakRSSMiB(), unitMB)
	setup, err := setupMedian(first, setupReps, setupFn, nil)
	if err != nil {
		return err
	}
	// Every run submits the same request, so as on paper-sweep its latency
	// is its median over the repeats, and the percentiles over the one
	// distinct request all equal it. Without a cache every run computes:
	// each request is a miss.
	latency := median(walls) * 1e3
	r.set("setup_s", setup, unitS)
	r.set("wall_s", median(walls), unitS)
	r.set("frames_per_s", float64(frames)/total.Seconds(), unitRate)
	r.set("req_per_s", float64(len(walls))/total.Seconds(), unitRate)
	r.set("req_p50_ms", latency, unitMS)
	r.set("req_p99_ms", latency, unitMS)
	r.set("miss_p50_ms", latency, unitMS)
	r.note("big-mesh: %d runs, walls %v s", len(walls), walls)
	return nil
}

// bigMeshTracePairs is how many untraced and traced runs the traced run
// alternates.
const bigMeshTracePairs = 2

// traceBigMesh alternates untraced and traced runs, records the first
// traced run's controller states and replays them through routing.
func traceBigMesh(plan bigMeshPlan, chk *bigMeshChecker, r *report) error {
	var (
		untraced, traced time.Duration
		ps               phaseSums
		materialize      time.Duration
		covered          int64
		recorded         simRun
	)
	for i := 0; i < bigMeshTracePairs; i++ {
		t0 := time.Now()
		res, err := plan.sp.Simulate()
		untraced += time.Since(t0)
		if err != nil {
			return err
		}
		chk.check(res, r)

		run, err := simulate(plan.sp, true, i == 0)
		if err != nil {
			return err
		}
		chk.check(run.res, r)
		traced += run.wall
		ps.add(run.probe)
		materialize += run.materialize
		covered += run.materialize.Nanoseconds() + run.probe.phaseTotalNS()
		if i == 0 {
			recorded = run
		}
	}
	rs := replay(recorded)
	if rs.mismatch > 0 {
		r.fail("big-mesh: routing replay recomputed %d times (DeltaWorkspace %d full + %d incremental), engine %d + %d",
			rs.n, rs.deltaFull, rs.deltaIncr, rs.engineFull, rs.engineIncr)
	}
	setReplay(r, rs)
	div := float64(bigMeshTracePairs)
	setPhases(r, ps, div)
	r.set("core.materialize_s", materialize.Seconds()/div, unitS)
	body, err := plan.sp.CanonicalJSON()
	if err != nil {
		return err
	}
	bodies := make([][]byte, 200)
	for i := range bodies {
		bodies[i] = body
	}
	us, err := fingerprintUS(bodies)
	if err != nil {
		return err
	}
	r.set("scenario.fingerprint_us", us, unitUS)
	r.set("trace.overhead", traced.Seconds()/untraced.Seconds(), unitRatio)
	r.set("trace.coverage", float64(covered)/float64(traced.Nanoseconds()), unitRatio)
	// Every simulation of the workload is itself a traced run.
	r.set("trace.rerun_share", 1, unitRatio)
	zeroLayers(r, "runner.cells", "runner.busy_s", "runner.utilization", "runner.cell_p50_ms",
		"runner.cell_max_ms", "serve.hit_n", "serve.miss_n", "serve.join_n", "serve.hit_p50_ms",
		"serve.miss_p50_ms", "serve.join_p50_ms", "serve.queue_wait_s", "store.hit_ratio", "store.puts",
		"store.evictions", "store.bytes", "campaign.replicates")
	r.note("big-mesh trace: %d untraced runs %.3fs, %d traced runs %.3fs", bigMeshTracePairs, untraced.Seconds(),
		bigMeshTracePairs, traced.Seconds())
	return nil
}
