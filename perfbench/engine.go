package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
)

// probe is the traced run's observer: it sums the engine's phase spans
// (sim.PhaseObserver) and, when record is set, keeps the node states the
// centralized controller adopted, reconstructed from the BatterySampled
// events, for the routing replay.
type probe struct {
	sim.BaseObserver
	phaseNS [sim.PhaseCount]int64
	phaseN  [sim.PhaseCount]int
	frames  int64

	record      bool
	needLevels  bool
	cur         []routing.NodeStatus
	sampled     int
	last        []routing.NodeStatus
	states      [][]routing.NodeStatus
	stateFrames []int64
}

// PhaseSpan implements sim.PhaseObserver.
func (p *probe) PhaseSpan(e sim.PhaseSpanEvent) {
	p.phaseNS[e.Phase] += e.DurationNS
	p.phaseN[e.Phase]++
}

// BatterySampled implements sim.Observer: one alive node's report of the
// frame being uploaded.
func (p *probe) BatterySampled(e sim.BatteryEvent) {
	if !p.record {
		return
	}
	p.cur[e.Node] = routing.NodeStatus{Alive: true, BatteryLevel: e.Level}
	p.sampled++
}

// FrameProcessed implements sim.Observer. A frame with a snapshot is kept
// when it differs from the last kept one the way the centralized plane's
// change detection sees it; that is exactly the sequence of states the
// controller recomputed on.
func (p *probe) FrameProcessed(e sim.FrameEvent) {
	p.frames = e.Frame
	if !p.record || p.sampled == 0 {
		return
	}
	if p.changed() {
		st := append([]routing.NodeStatus(nil), p.cur...)
		p.states = append(p.states, st)
		p.stateFrames = append(p.stateFrames, e.Frame)
		p.last = st
	}
	for i := range p.cur {
		p.cur[i] = routing.NodeStatus{}
	}
	p.sampled = 0
}

func (p *probe) changed() bool {
	if p.last == nil {
		return true
	}
	for i, st := range p.cur {
		prev := p.last[i]
		if st.Alive != prev.Alive || (p.needLevels && st.BatteryLevel != prev.BatteryLevel) {
			return true
		}
	}
	return false
}

// phaseTotalNS is the engine frame time: every phase span.
func (p *probe) phaseTotalNS() int64 {
	var t int64
	for _, ns := range p.phaseNS {
		t += ns
	}
	return t
}

// simRun is one simulation executed by the benchmark itself.
type simRun struct {
	res         sim.Result
	wall        time.Duration // materialize + construct + run
	materialize time.Duration // Spec.Strategy + Strategy.Config
	probe       *probe        // nil on untraced runs
	replay      *replayInput  // nil unless the states were recorded
}

// replayInput is what the routing replay needs besides the states.
type replayInput struct {
	alg    routing.Algorithm
	graph  *topology.Graph
	levels int
	dests  map[app.ModuleID][]topology.NodeID
}

// simulate materialises and runs one spec. With traced set it attaches a
// probe, and with record also reconstructs the controller's states.
func simulate(sp scenario.Spec, traced, record bool) (simRun, error) {
	var run simRun
	var opts []core.Option
	if traced {
		run.probe = &probe{record: record}
		opts = append(opts, core.WithObservers(run.probe))
	}
	start := time.Now()
	st, err := sp.Strategy(opts...)
	if err != nil {
		return run, err
	}
	cfg, err := st.Config()
	if err != nil {
		return run, err
	}
	run.materialize = time.Since(start)
	if record {
		k := cfg.Graph.NodeCount()
		run.probe.cur = make([]routing.NodeStatus, k)
		run.probe.needLevels = cfg.Algorithm.NeedsBatteryInfo()
		in := &replayInput{alg: cfg.Algorithm, graph: cfg.Graph, levels: cfg.BatteryLevels,
			dests: map[app.ModuleID][]topology.NodeID{}}
		for _, m := range cfg.App.Modules {
			in.dests[m.ID] = cfg.Mapping.NodesFor(m.ID)
		}
		run.replay = in
	}
	s, err := sim.New(cfg)
	if err != nil {
		return run, err
	}
	run.res = s.Run()
	run.wall = time.Since(start)
	if record && run.res.Reason == sim.DeathControllersDead {
		// The frame the controllers died in adopted nothing.
		p := run.probe
		if n := len(p.states); n > 0 && p.stateFrames[n-1] == run.res.Frames {
			p.states = p.states[:n-1]
			p.stateFrames = p.stateFrames[:n-1]
		}
	}
	return run, nil
}

// replayableSpec reports whether a spec's controller states can be rebuilt
// from its events: a centralized plane and no runtime faults.
func replayableSpec(sp scenario.Spec) bool {
	return (sp.ControlPlane == "" || sp.ControlPlane == "centralized") && sp.Faults == ""
}

// replayable adds what only the run can tell: no deadlock flag was raised.
func replayable(sp scenario.Spec, res sim.Result) bool {
	return replayableSpec(sp) && res.DeadlockReports == 0
}

// replayStats is the routing replay of one or more runs.
type replayStats struct {
	n                                int // recomputes replayed
	weightsNS, pathsNS, tablesNS     int64
	repairNS, deltaNS                int64 // incremental-path calls; all DeltaWorkspace calls
	deltaFull, deltaIncr             int
	engineControlNS                  int64 // the engine's control-full + control-incremental spans
	engineFull, engineIncr, mismatch int
}

func (a *replayStats) add(b replayStats) {
	a.n += b.n
	a.weightsNS += b.weightsNS
	a.pathsNS += b.pathsNS
	a.tablesNS += b.tablesNS
	a.repairNS += b.repairNS
	a.deltaNS += b.deltaNS
	a.deltaFull += b.deltaFull
	a.deltaIncr += b.deltaIncr
	a.engineControlNS += b.engineControlNS
	a.engineFull += b.engineFull
	a.engineIncr += b.engineIncr
	a.mismatch += b.mismatch
}

// replay feeds a recorded run's states, in order, through routing's public
// phase functions (phase 1 weights, phase 2 Floyd–Warshall, phase 3 tables)
// and through DeltaWorkspace.ComputeInto, the path the engine takes. It
// validates that the replay recomputed exactly when the engine did.
func replay(run simRun) replayStats {
	in, p := run.replay, run.probe
	var out replayStats
	out.n = len(p.states)
	out.engineFull, out.engineIncr = run.res.FullRecomputes, run.res.IncrementalRecomputes
	out.engineControlNS = p.phaseNS[sim.PhaseControlFull] + p.phaseNS[sim.PhaseControlIncremental]

	state := func(st []routing.NodeStatus) *routing.SystemState {
		return &routing.SystemState{Graph: in.graph, Status: st, Levels: in.levels}
	}
	var (
		w    routing.Matrix
		sp   routing.ShortestPaths
		prev *routing.Tables
	)
	for _, st := range p.states {
		s := state(st)
		t0 := time.Now()
		in.alg.WeightsInto(&w, s)
		t1 := time.Now()
		sp.ComputeFrom(&w)
		t2 := time.Now()
		prev = routing.BuildTables(s, &sp, in.dests, prev)
		t3 := time.Now()
		out.weightsNS += t1.Sub(t0).Nanoseconds()
		out.pathsNS += t2.Sub(t1).Nanoseconds()
		out.tablesNS += t3.Sub(t2).Nanoseconds()
	}

	dw := routing.NewDeltaWorkspace()
	var tables *routing.Tables
	for _, st := range p.states {
		s := state(st)
		before := dw.Stats().Incremental
		t0 := time.Now()
		plan := dw.ComputeInto(in.alg, s, in.dests, tables)
		d := time.Since(t0).Nanoseconds()
		tables = plan.Tables
		out.deltaNS += d
		if dw.Stats().Incremental > before {
			out.repairNS += d
		}
	}
	stats := dw.Stats()
	out.deltaFull, out.deltaIncr = stats.Full, stats.Incremental
	if out.n != out.engineFull+out.engineIncr || out.deltaFull != out.engineFull || out.deltaIncr != out.engineIncr {
		out.mismatch = 1
	}
	return out
}

// setReplay publishes the routing metrics of a replay.
func setReplay(r *report, rs replayStats) {
	r.set("routing.weights_s", float64(rs.weightsNS)/1e9, unitS)
	r.set("routing.paths_s", float64(rs.pathsNS)/1e9, unitS)
	r.set("routing.repair_s", float64(rs.repairNS)/1e9, unitS)
	r.set("routing.tables_s", float64(rs.tablesNS)/1e9, unitS)
	r.set("routing.replay_n", float64(rs.n), unitCount)
	ratio := 0.0
	if rs.engineControlNS > 0 {
		ratio = float64(rs.deltaNS) / float64(rs.engineControlNS)
	}
	r.set("routing.replay_ratio", ratio, unitRatio)
	r.note("replay: %d recomputes (engine %d full + %d incremental; DeltaWorkspace %d + %d), "+
		"DeltaWorkspace %.3fs vs engine control spans %.3fs", rs.n, rs.engineFull, rs.engineIncr,
		rs.deltaFull, rs.deltaIncr, float64(rs.deltaNS)/1e9, float64(rs.engineControlNS)/1e9)
}

// phaseSums aggregates probes.
type phaseSums struct {
	ns     [sim.PhaseCount]int64
	n      [sim.PhaseCount]int
	frames int64
}

func (ps *phaseSums) add(p *probe) {
	for i := range ps.ns {
		ps.ns[i] += p.phaseNS[i]
		ps.n[i] += p.phaseN[i]
	}
	ps.frames += p.frames
}

func (ps *phaseSums) total() int64 {
	var t int64
	for _, v := range ps.ns {
		t += v
	}
	return t
}

// setPhases publishes the sim and controlplane metrics, scaled by 1/div (the
// number of passes the sums cover).
func setPhases(r *report, ps phaseSums, div float64) {
	sec := func(p sim.Phase) float64 { return float64(ps.ns[p]) / 1e9 / div }
	cnt := func(p sim.Phase) float64 { return float64(ps.n[p]) / div }
	r.set("controlplane.full_n", cnt(sim.PhaseControlFull), unitCount)
	r.set("controlplane.full_s", sec(sim.PhaseControlFull), unitS)
	r.set("controlplane.incremental_n", cnt(sim.PhaseControlIncremental), unitCount)
	r.set("controlplane.incremental_s", sec(sim.PhaseControlIncremental), unitS)
	r.set("controlplane.idle_n", cnt(sim.PhaseControlIdle), unitCount)
	r.set("controlplane.idle_s", sec(sim.PhaseControlIdle), unitS)
	control := ps.ns[sim.PhaseControlFull] + ps.ns[sim.PhaseControlIncremental] + ps.ns[sim.PhaseControlIdle]
	share := 0.0
	if t := ps.total(); t > 0 {
		share = float64(control) / float64(t)
	}
	r.set("controlplane.share", share, unitRatio)
	r.set("sim.frames", float64(ps.frames)/div, unitCount)
	r.set("sim.snapshot_s", sec(sim.PhaseSnapshot), unitS)
	r.set("sim.schedule_s", sec(sim.PhaseSchedule), unitS)
	r.set("sim.faults_s", sec(sim.PhaseFaults), unitS)
}

// fingerprintUS times scenario.ParseSpecJSON + Spec.Fingerprint on canonical
// spec bodies and returns the median microseconds per body.
func fingerprintUS(bodies [][]byte) (float64, error) {
	var us []float64
	for rep := 0; rep < 3; rep++ {
		for _, b := range bodies {
			start := time.Now()
			sp, err := scenario.ParseSpecJSON(b)
			if err != nil {
				return 0, err
			}
			if _, err := sp.Fingerprint(); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	return median(us), nil
}

// summary is the committed expectation of one simulation: jobs completed and
// lost, frames, death reason and total energy.
func summary(res sim.Result) string {
	return fmt.Sprintf("%d\t%d\t%d\t%s\t%s", res.JobsCompleted, res.JobsLost, res.Frames, res.Reason,
		strconv.FormatFloat(res.Energy.TotalConsumedPJ(), 'g', -1, 64))
}

// checkInvariants applies the seed-independent checks to one result: no AES
// payload mismatch, every completed job verified when payloads are on, and
// an ideal-battery run within the Theorem-1 bound.
func checkInvariants(sp scenario.Spec, res sim.Result, bound func(scenario.Spec) (float64, error)) error {
	if res.PayloadMismatches != 0 {
		return fmt.Errorf("%s: %d AES payload mismatches", sp.Label(), res.PayloadMismatches)
	}
	if sp.VerifyPayload && res.PayloadJobsVerified != res.JobsCompleted {
		return fmt.Errorf("%s: %d of %d completed jobs verified", sp.Label(), res.PayloadJobsVerified, res.JobsCompleted)
	}
	if sp.Battery == scenario.BatteryIdeal && bound != nil {
		j, err := bound(sp)
		if err != nil {
			return err
		}
		if float64(res.JobsCompleted) > j {
			return fmt.Errorf("%s: %d jobs completed above the Theorem-1 bound %.2f", sp.Label(), res.JobsCompleted, j)
		}
	}
	return nil
}

// theoremBound returns J* for a spec's mesh and battery model.
func theoremBound(sp scenario.Spec) (float64, error) {
	st, err := sp.Strategy()
	if err != nil {
		return 0, err
	}
	b, err := st.UpperBound()
	if err != nil {
		return 0, err
	}
	return b.Jobs, nil
}
