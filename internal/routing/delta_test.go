package routing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/topology"
)

// This file pins the incremental phase-2 repair (DeltaWorkspace) to the full
// per-destination Dijkstra pass, in the style of equivalence_test.go:
// byte-identical plans over meshes 4-16 × algorithms × battery-drain
// trajectories × dead nodes × link faults, a lockstep run at non-dyadic EAR
// Q, a randomized long-run soak, a property test over random weight
// perturbations (including the crossover boundary, with the dense
// Floyd–Warshall oracle alongside), the affected-pair count against the
// successor-walk oracle, the zero-alloc steady-state guard, and the
// benchmarks behind BENCH_incremental.json.

// assertPathsIdentical asserts two phase-2 results are byte-identical:
// every distance bit pattern and every successor.
func assertPathsIdentical(t *testing.T, gp, wp *ShortestPaths) {
	t.Helper()
	if gp.n != wp.n {
		t.Fatalf("dimensions diverged: %d vs %d", gp.n, wp.n)
	}
	k := gp.n
	for i := 0; i < k*k; i++ {
		if math.Float64bits(gp.dist.cells[i]) != math.Float64bits(wp.dist.cells[i]) {
			t.Fatalf("dist[%d][%d] = %g, want %g", i/k, i%k, gp.dist.cells[i], wp.dist.cells[i])
		}
		if gp.succ[i] != wp.succ[i] {
			t.Fatalf("succ[%d][%d] = %d, want %d", i/k, i%k, gp.succ[i], wp.succ[i])
		}
	}
}

// assertPlansIdentical asserts two plans are byte-identical: every distance
// bit pattern, every successor, and every phase-3 table entry.
func assertPlansIdentical(t *testing.T, got, want *Plan) {
	t.Helper()
	assertPathsIdentical(t, got.Paths, want.Paths)
	gt, wt := got.Tables, want.Tables
	if gt.nodes != wt.nodes || gt.modules != wt.modules {
		t.Fatalf("table dimensions diverged: %dx%d vs %dx%d", gt.nodes, gt.modules, wt.nodes, wt.modules)
	}
	for i := range gt.has {
		if gt.has[i] != wt.has[i] {
			t.Fatalf("has[%d] = %v, want %v", i, gt.has[i], wt.has[i])
		}
	}
	for i := range gt.known {
		if gt.known[i] != wt.known[i] {
			t.Fatalf("known[%d] = %v, want %v", i, gt.known[i], wt.known[i])
		}
	}
	for i, r := range gt.routes {
		w := wt.routes[i]
		if r.Dest != w.Dest || r.NextHop != w.NextHop ||
			math.Float64bits(r.Distance) != math.Float64bits(w.Distance) {
			t.Fatalf("routes[%d] = %+v, want %+v", i, r, w)
		}
	}
	for i := range gt.nextHop {
		if gt.nextHop[i] != wt.nextHop[i] {
			t.Fatalf("nextHop[%d][%d] = %d, want %d", i/gt.nodes, i%gt.nodes, gt.nextHop[i], wt.nextHop[i])
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("fingerprints diverged despite identical contents")
	}
}

// assertAdjacencyIdentical asserts two CSR adjacencies are identical:
// offsets, in-arcs and out-arcs, weights bit for bit.
func assertAdjacencyIdentical(t *testing.T, got, want *adjacency) {
	t.Helper()
	if !slices.Equal(got.inOff, want.inOff) || !slices.Equal(got.outOff, want.outOff) {
		t.Fatalf("adjacency offsets diverged:\nin  %v vs %v\nout %v vs %v", got.inOff, want.inOff, got.outOff, want.outOff)
	}
	sameArcs := func(a, b arc) bool { return a.v == b.v && math.Float64bits(a.w) == math.Float64bits(b.w) }
	if !slices.EqualFunc(got.in, want.in, sameArcs) || !slices.EqualFunc(got.out, want.out, sameArcs) {
		t.Fatalf("adjacency arcs diverged:\nin  %v vs %v\nout %v vs %v", got.in, want.in, got.out, want.out)
	}
}

func checkerboardDests(g *topology.Graph) map[app.ModuleID][]topology.NodeID {
	dests := map[app.ModuleID][]topology.NodeID{}
	for n := 0; n < g.NodeCount(); n++ {
		m := app.ModuleID(n%3 + 1)
		dests[m] = append(dests[m], topology.NodeID(n))
	}
	return dests
}

// TestDeltaMatchesFullRecompute drives a DeltaWorkspace and a plain
// Workspace in lockstep — each chaining its own prev tables, exactly like a
// controller — over meshes 4-16 with battery-drain trajectories, node
// deaths (which must trigger the full fallback), deadlock churn and
// setup-time link faults, asserting byte-identical plans on every round.
func TestDeltaMatchesFullRecompute(t *testing.T) {
	for _, meshSize := range []int{4, 6, 8, 12, 16} {
		for _, alg := range []Algorithm{SDR{}, NewEAR()} {
			t.Run(fmt.Sprintf("%dx%d/%s", meshSize, meshSize, alg.Name()), func(t *testing.T) {
				mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
				if _, _, err := topology.FailLinks(mesh.Graph, 0.1, uint64(meshSize)); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(meshSize)*41 + int64(len(alg.Name()))))
				dests := checkerboardDests(mesh.Graph)
				state := fullState(mesh.Graph, 8)

				dw := NewDeltaWorkspace()
				ws := NewWorkspace()
				var dPrev, fPrev *Tables
				rounds := 24
				if meshSize >= 12 {
					rounds = 8
				}
				for round := 0; round < rounds; round++ {
					// Mostly battery drain; every few rounds a death or a
					// deadlock flip.
					for hit := 0; hit < 1+rng.Intn(3); hit++ {
						st := &state.Status[rng.Intn(len(state.Status))]
						if st.BatteryLevel > 0 {
							st.BatteryLevel--
						} else {
							st.BatteryLevel = 7
						}
					}
					if round%5 == 4 {
						state.Status[rng.Intn(len(state.Status))].Alive = false
					}
					if round%3 == 2 {
						st := &state.Status[rng.Intn(len(state.Status))]
						st.Deadlocked = !st.Deadlocked
					}
					dPlan := dw.ComputeInto(alg, state, dests, dPrev)
					fPlan := ComputeInto(ws, alg, state, dests, fPrev)
					assertPlansIdentical(t, dPlan, fPlan)
					dPrev, fPrev = dPlan.Tables, fPlan.Tables
				}
				stats := dw.Stats()
				if stats.Full+stats.Incremental != rounds {
					t.Fatalf("stats count %d recomputes, want %d", stats.Full+stats.Incremental, rounds)
				}
				// On tiny meshes a few drained nodes are already a large
				// dirty fraction, so only the bigger meshes are guaranteed
				// to exercise the repair under the default crossover.
				if meshSize >= 8 && alg.NeedsBatteryInfo() && stats.Incremental == 0 {
					t.Fatalf("EAR drain trajectory never took the incremental path: %+v", stats)
				}
			})
		}
	}
}

// TestDeltaLongRunSoak is the randomized endurance pass: hundreds of rounds
// of mixed drains, deaths, revivals and deadlock churn on the paper's 8x8
// mesh, incremental vs full, byte-identical throughout.
func TestDeltaLongRunSoak(t *testing.T) {
	mesh := topology.MustMesh(8, 8, topology.DefaultSpacingCM)
	rng := rand.New(rand.NewSource(97))
	dests := checkerboardDests(mesh.Graph)
	state := fullState(mesh.Graph, 8)
	var alg Algorithm = NewEAR()

	dw := NewDeltaWorkspace()
	ws := NewWorkspace()
	var dPrev, fPrev *Tables
	for round := 0; round < 300; round++ {
		st := &state.Status[rng.Intn(len(state.Status))]
		switch r := rng.Float64(); {
		case r < 0.70:
			st.BatteryLevel = rng.Intn(8)
		case r < 0.85:
			st.Deadlocked = !st.Deadlocked
		case r < 0.95:
			st.Alive = false
		default:
			st.Alive = true // revival must also force the full fallback
		}
		dPlan := dw.ComputeInto(alg, state, dests, dPrev)
		fPlan := ComputeInto(ws, alg, state, dests, fPrev)
		assertPlansIdentical(t, dPlan, fPlan)
		dPrev, fPrev = dPlan.Tables, fPlan.Tables
	}
	stats := dw.Stats()
	if stats.Incremental == 0 || stats.Full == 0 {
		t.Fatalf("soak did not exercise both paths: %+v", stats)
	}
}

// matrixAlg exposes phase 1 directly: its weights are an arbitrary matrix
// the test mutates between recomputes, so perturbations are not limited to
// what battery quantisation can express.
type matrixAlg struct{ m *Matrix }

func (matrixAlg) Name() string           { return "matrix" }
func (matrixAlg) NeedsBatteryInfo() bool { return false }
func (a matrixAlg) WeightsInto(w *Matrix, state *SystemState) {
	k := a.m.Dim()
	w.Reset(k)
	for i := 0; i < k; i++ {
		copy(w.Row(i), a.m.Row(i))
		w.Set(i, i, 0)
	}
}

// TestDeltaPropertyRandomPerturbations is the fuzz-style satellite: random
// single-weight (and occasional burst) perturbations on a random directed
// graph — weight changes, link deletions, link insertions — asserting after
// every step that the incremental repair matches a from-scratch computation
// byte-identically, that the from-scratch sparse pass matches the dense
// Floyd–Warshall oracle, and that the repair's adjacency — reweighted in
// place when only finite weights moved, rebuilt when an entry moved to or
// from Inf — equals one built from the new weights, while sweeping the
// crossover thresholds so both sides of the fallback boundary are
// exercised. Weights are multiples of 1/8 so path sums carry no rounding,
// which the dense oracle needs to agree.
func TestDeltaPropertyRandomPerturbations(t *testing.T) {
	for _, meshSize := range []int{3, 4} {
		t.Run(fmt.Sprintf("%dx%d", meshSize, meshSize), func(t *testing.T) {
			mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
			k := mesh.Graph.NodeCount()
			rng := rand.New(rand.NewSource(int64(k)))
			w := NewMatrix(k)
			randWeight := func() float64 { return float64(1+rng.Intn(64)) * 0.125 }
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if i != j && rng.Float64() < 0.3 {
						w.Set(i, j, randWeight())
					}
				}
			}
			var alg Algorithm = matrixAlg{m: &w}
			state := fullState(mesh.Graph, 8)
			dests := checkerboardDests(mesh.Graph)

			dw := NewDeltaWorkspace()
			ws := NewWorkspace()
			var dPrev, fPrev *Tables
			crossovers := [][2]float64{{0, 0}, {0.05, 0.02}, {0.3, 0.1}, {1, 1}}
			before := NewMatrix(k)
			var patched, rebuilt int
			for step := 0; step < 400; step++ {
				copy(before.cells, w.cells)
				if step%25 == 0 {
					c := crossovers[(step/25)%len(crossovers)]
					dw.SetCrossover(c[0], c[1])
				}
				for hit := 0; hit < 1+rng.Intn(3); hit++ {
					i, j := rng.Intn(k), rng.Intn(k)
					if i == j {
						continue
					}
					switch r := rng.Float64(); {
					case r < 0.25:
						w.Set(i, j, Inf) // link fault
					default:
						w.Set(i, j, randWeight())
					}
				}
				reshaped := false
				for i, v := range w.cells {
					reshaped = reshaped || (v == Inf) != (before.cells[i] == Inf)
				}
				incremental := dw.Stats().Incremental
				dPlan := dw.ComputeInto(alg, state, dests, dPrev)
				fPlan := ComputeInto(ws, alg, state, dests, fPrev)
				assertPlansIdentical(t, dPlan, fPlan)
				assertPathsIdentical(t, fPlan.Paths, denseAllPairs(&w))
				var fresh adjacency
				fresh.build(&w)
				assertAdjacencyIdentical(t, &dw.ws.sp.g, &fresh)
				if dw.Stats().Incremental > incremental && len(dw.changed) > 0 {
					if dw.reshaped != reshaped {
						t.Fatalf("step %d: repair took reshaped=%v, want %v", step, dw.reshaped, reshaped)
					}
					if reshaped {
						rebuilt++
					} else {
						patched++
					}
				}
				dPrev, fPrev = dPlan.Tables, fPlan.Tables
			}
			stats := dw.Stats()
			if stats.Incremental == 0 || stats.Full == 0 {
				t.Fatalf("perturbations did not exercise both sides of the crossover: %+v", stats)
			}
			if patched == 0 || rebuilt == 0 {
				t.Fatalf("repairs did not exercise both adjacency updates: %d patched, %d rebuilt", patched, rebuilt)
			}
		})
	}
}

// TestDeltaMatchesFullAtNonDyadicQ runs the incremental and the always-full
// workspace in lockstep at EAR Q = 1.3 and 2.7, whose penalties and path
// sums round. Both must compute the same fixpoint every round: the
// incremental path may not depend on exact weight arithmetic.
func TestDeltaMatchesFullAtNonDyadicQ(t *testing.T) {
	for _, q := range []float64{1.3, 2.7} {
		for _, meshSize := range []int{8, 12, 16} {
			name, alg := earQ(q)
			t.Run(fmt.Sprintf("%dx%d/%s", meshSize, meshSize, name), func(t *testing.T) {
				mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
				rng := rand.New(rand.NewSource(int64(meshSize)*7 + int64(q*10)))
				dests := checkerboardDests(mesh.Graph)
				state := fullState(mesh.Graph, 8)

				incr := NewDeltaWorkspace()
				full := NewDeltaWorkspace()
				full.SetMode(RecomputeFull)
				var iPrev, fPrev *Tables
				const rounds = 40
				for round := 0; round < rounds; round++ {
					for hit := 0; hit < 1+rng.Intn(3); hit++ {
						st := &state.Status[rng.Intn(len(state.Status))]
						if st.BatteryLevel > 0 {
							st.BatteryLevel--
						}
					}
					iPlan := incr.ComputeInto(alg, state, dests, iPrev)
					fPlan := full.ComputeInto(alg, state, dests, fPrev)
					if iPlan.Fingerprint() != fPlan.Fingerprint() {
						t.Fatalf("round %d: incremental plan fingerprint %x, full %x", round, iPlan.Fingerprint(), fPlan.Fingerprint())
					}
					iPrev, fPrev = iPlan.Tables, fPlan.Tables
				}
				if s := incr.Stats(); s.Incremental == 0 {
					t.Fatalf("the drain trajectory never took the incremental path: %+v", s)
				}
			})
		}
	}
}

// markAffectedOracle is the O(K²) successor-tree walk the affected-pair
// count used before the subtree walk: it labels, for destination j, every
// source whose previous canonical path to j touches a dirty vertex
// (endpoints included), memoising verdicts along each walked path, and
// returns how many sources ≠ j it labelled affected.
func markAffectedOracle(succ []topology.NodeID, dirty []bool, j, k int) int {
	if dirty[j] {
		return k - 1 // every path into a dirty destination touches it
	}
	const (
		unknown = iota
		clean
		affected
	)
	mark := make([]int, k)
	var walk []int
	for i := 0; i < k; i++ {
		if i == j || mark[i] != unknown {
			continue
		}
		v, verdict := i, unknown
		for verdict == unknown {
			switch s := succ[v*k+j]; {
			case mark[v] != unknown:
				verdict = mark[v]
			case dirty[v]:
				verdict = affected
			case s == topology.Invalid || int(s) == j:
				verdict = clean // unreachable pairs stay clean
			default:
				walk = append(walk, v)
				v = int(s)
			}
		}
		mark[v] = verdict
		for _, u := range walk {
			mark[u] = verdict
		}
		walk = walk[:0]
	}
	n := 0
	for i := 0; i < k; i++ {
		if i != j && mark[i] == affected {
			n++
		}
	}
	return n
}

// TestAffectedCountMatchesMarkAffected pins the crossover's affected-pair
// count — the subtree walk in the previous shortest-path trees — to the
// successor-walk oracle for every destination of every step, over EAR drain
// trajectories with link faults and deadlock churn and over random weight
// perturbations that add and remove edges. The count decides the
// full/incremental split that simulation results report, so it must not
// move.
func TestAffectedCountMatchesMarkAffected(t *testing.T) {
	// check compares the counts for the step about to run; callers skip
	// steps that change liveness, which never reach the count.
	check := func(t *testing.T, dw *DeltaWorkspace, alg Algorithm, state *SystemState) int {
		t.Helper()
		next, k := dw.cur^1, state.Graph.NodeCount()
		alg.WeightsInto(&dw.w[next], state)
		if !dw.havePrev {
			return 0
		}
		dw.grow(k)
		dw.diffDirty(&dw.w[next], &dw.w[dw.cur], k)
		for j := 0; j < k; j++ {
			if got, want := dw.affectedSources(j), markAffectedOracle(dw.ws.sp.succ, dw.dirtyMark, j, k); got != want {
				t.Fatalf("destination %d: subtree walk counts %d affected sources, oracle %d", j, got, want)
			}
		}
		return k
	}
	for _, meshSize := range []int{8, 12, 16} {
		t.Run(fmt.Sprintf("%dx%d/EAR", meshSize, meshSize), func(t *testing.T) {
			mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
			if _, _, err := topology.FailLinks(mesh.Graph, 0.1, uint64(meshSize)); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(meshSize) * 13))
			dests := checkerboardDests(mesh.Graph)
			state := fullState(mesh.Graph, 8)
			var alg Algorithm = NewEAR()
			dw := NewDeltaWorkspace()
			dw.SetCrossover(1, 1) // keep the trees evolving through the repair
			var prev *Tables
			checks := 0
			for round := 0; round < 30; round++ {
				for hit := 0; hit < 1+rng.Intn(4); hit++ {
					state.Status[rng.Intn(len(state.Status))].BatteryLevel = rng.Intn(8)
				}
				if round%4 == 3 {
					st := &state.Status[rng.Intn(len(state.Status))]
					st.Deadlocked = !st.Deadlocked
				}
				if round == 20 {
					state.Status[rng.Intn(len(state.Status))].Alive = false
				} else {
					checks += check(t, dw, alg, state)
				}
				prev = dw.ComputeInto(alg, state, dests, prev).Tables
			}
			if checks == 0 {
				t.Fatal("no step compared the affected counts")
			}
		})
	}
	t.Run("random-graph", func(t *testing.T) {
		mesh := topology.MustMesh(5, 5, topology.DefaultSpacingCM)
		k := mesh.Graph.NodeCount()
		rng := rand.New(rand.NewSource(5))
		w := NewMatrix(k)
		randWeight := func() float64 { return float64(1+rng.Intn(64)) * 0.125 }
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j && rng.Float64() < 0.2 {
					w.Set(i, j, randWeight())
				}
			}
		}
		var alg Algorithm = matrixAlg{m: &w}
		state := fullState(mesh.Graph, 8)
		dests := checkerboardDests(mesh.Graph)
		dw := NewDeltaWorkspace()
		dw.SetCrossover(1, 1)
		var prev *Tables
		for step := 0; step < 200; step++ {
			for hit := 0; hit < 1+rng.Intn(3); hit++ {
				i, j := rng.Intn(k), rng.Intn(k)
				if i == j {
					continue
				}
				if rng.Float64() < 0.25 {
					w.Set(i, j, Inf)
				} else {
					w.Set(i, j, randWeight())
				}
			}
			check(t, dw, alg, state)
			prev = dw.ComputeInto(alg, state, dests, prev).Tables
		}
	})
}

// TestDeltaCrossoverPolicy pins the fallback triggers: an unchanged
// snapshot repairs for free, a forced-full mode never repairs, a tiny
// crossover rejects even a single dirty vertex, and a permissive crossover
// accepts a broad change — all byte-identical to the full pass.
func TestDeltaCrossoverPolicy(t *testing.T) {
	mesh := topology.MustMesh(6, 6, topology.DefaultSpacingCM)
	dests := checkerboardDests(mesh.Graph)
	state := fullState(mesh.Graph, 8)
	var alg Algorithm = NewEAR()

	dw := NewDeltaWorkspace()
	ws := NewWorkspace()
	check := func(wantFull, wantIncr int) {
		t.Helper()
		dPlan := dw.ComputeInto(alg, state, dests, nil)
		fPlan := ComputeInto(ws, alg, state, dests, nil)
		assertPlansIdentical(t, dPlan, fPlan)
		if s := dw.Stats(); s.Full != wantFull || s.Incremental != wantIncr {
			t.Fatalf("stats = %+v, want Full %d Incremental %d", s, wantFull, wantIncr)
		}
	}

	check(1, 0) // first computation: full
	check(1, 1) // unchanged snapshot: free repair (empty dirty set)

	dw.SetCrossover(1, 1) // everything repairs
	before := dw.Stats().DirtyVertices
	state.Status[14].BatteryLevel = 3
	check(1, 2) // one drained node: incremental
	if dw.Stats().DirtyVertices <= before {
		t.Fatal("incremental repair did not record dirty vertices")
	}
	for i := range state.Status {
		state.Status[i].BatteryLevel = 1
	}
	check(1, 3) // broad change, permissive crossover: still incremental

	dw.SetCrossover(0, 0) // any dirty vertex is past the boundary
	state.Status[15].BatteryLevel = 3
	check(2, 3)

	dw.SetMode(RecomputeFull)
	dw.SetCrossover(1, 1)
	state.Status[16].BatteryLevel = 0
	check(3, 3)
	if dw.Mode() != RecomputeFull {
		t.Fatalf("mode = %v, want full", dw.Mode())
	}

	dw.SetMode(RecomputeIncremental)
	state.Status[17].BatteryLevel = 0
	check(3, 4)
}

// TestDeltaComputeSteadyStateZeroAllocs extends the PR 3 zero-alloc
// contract to the incremental path: once the workspace (including the
// repair scratch) is warm, battery-drain recomputes must not allocate.
func TestDeltaComputeSteadyStateZeroAllocs(t *testing.T) {
	mesh := topology.MustMesh(8, 8, 1)
	state := fullState(mesh.Graph, 8)
	dests := checkerboardDests(mesh.Graph)
	dw := NewDeltaWorkspace()
	var alg Algorithm = NewEAR()
	var prev *Tables
	// Warm-ups: size both ping-pong table buffers, both weight matrices and
	// the repair scratch (the third call takes the incremental path).
	for i := 0; i < 3; i++ {
		state.Status[i].BatteryLevel = 6
		prev = dw.ComputeInto(alg, state, dests, prev).Tables
	}
	if dw.Stats().Incremental == 0 {
		t.Fatal("warm-up never exercised the incremental path")
	}
	step := 0
	allocs := testing.AllocsPerRun(64, func() {
		st := &state.Status[step%len(state.Status)]
		st.BatteryLevel = (st.BatteryLevel + 1) % 8
		step++
		prev = dw.ComputeInto(alg, state, dests, prev).Tables
	})
	if allocs != 0 {
		t.Errorf("steady-state DeltaWorkspace.ComputeInto allocated %.1f times per run, want 0", allocs)
	}
}

// benchDrain drives one battery-threshold crossing per iteration through a
// DeltaWorkspace in the given mode — the controller hot path the scaling
// claim is about.
func benchDrain(b *testing.B, meshSize int, mode RecomputeMode) {
	mesh := topology.MustMesh(meshSize, meshSize, 1)
	state := fullState(mesh.Graph, 8)
	dests := checkerboardDests(mesh.Graph)
	dw := NewDeltaWorkspace()
	dw.SetMode(mode)
	var alg Algorithm = NewEAR()
	var prev *Tables
	for i := 0; i < 3; i++ {
		state.Status[i].BatteryLevel = 6
		prev = dw.ComputeInto(alg, state, dests, prev).Tables
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &state.Status[i%len(state.Status)]
		st.BatteryLevel = (st.BatteryLevel + 1) % 8
		prev = dw.ComputeInto(alg, state, dests, prev).Tables
	}
}

// BenchmarkIncrementalRecompute is the BENCH_incremental.json source: the
// per-threshold-crossing recompute cost for the full pass vs the
// incremental repair as the mesh grows. The full column stops at 32x32;
// 64x64 (4096 nodes) appears only under the incremental column, whose
// set-up runs one full pass (seconds at that size).
func BenchmarkIncrementalRecompute(b *testing.B) {
	for _, meshSize := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("full/%dx%d", meshSize, meshSize), func(b *testing.B) {
			benchDrain(b, meshSize, RecomputeFull)
		})
	}
	for _, meshSize := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("incremental/%dx%d", meshSize, meshSize), func(b *testing.B) {
			benchDrain(b, meshSize, RecomputeIncremental)
		})
	}
}

// BenchmarkDeltaCrossover measures the repair against the full pass on the
// 16x16 mesh as the change grows: each sub-benchmark drains a fixed number
// of nodes per recompute (each drained node dirties itself and its
// in-neighbours). The crossover constants in delta.go are output policy,
// not this break-even; the benchmark shows how far they sit from it.
func BenchmarkDeltaCrossover(b *testing.B) {
	const meshSize = 16
	run := func(b *testing.B, drained int, mode RecomputeMode) {
		mesh := topology.MustMesh(meshSize, meshSize, 1)
		state := fullState(mesh.Graph, 8)
		dests := checkerboardDests(mesh.Graph)
		dw := NewDeltaWorkspace()
		dw.SetMode(mode)
		dw.SetCrossover(1, 1) // measure the repair itself, not the policy
		var alg Algorithm = NewEAR()
		var prev *Tables
		for i := 0; i < 3; i++ {
			state.Status[i].BatteryLevel = 6
			prev = dw.ComputeInto(alg, state, dests, prev).Tables
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for d := 0; d < drained; d++ {
				st := &state.Status[(i*drained+d*5)%len(state.Status)]
				st.BatteryLevel = (st.BatteryLevel + 1) % 8
			}
			prev = dw.ComputeInto(alg, state, dests, prev).Tables
		}
	}
	b.Run("full", func(b *testing.B) { run(b, 1, RecomputeFull) })
	for _, drained := range []int{1, 2, 4, 8, 16, 32, 51} {
		b.Run(fmt.Sprintf("repair/drained-%d", drained), func(b *testing.B) {
			run(b, drained, RecomputeIncremental)
		})
	}
}
