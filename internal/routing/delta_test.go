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
// Q, a randomized long-run soak, property tests over random weight
// perturbations (one with the dense Floyd–Warshall oracle alongside, one
// pinning the full/incremental labels and the executed full passes on both
// sides of both crossovers), the affected-pair count against the
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
// deaths (labelled full, and repaired), deadlock churn and setup-time link
// faults, asserting byte-identical plans on every round.
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
			st.Alive = true // revival is labelled full too, and repaired
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
// what battery quantisation can express. Like SDR and EAR it drops every
// edge with a dead endpoint.
type matrixAlg struct{ m *Matrix }

func (matrixAlg) Name() string           { return "matrix" }
func (matrixAlg) NeedsBatteryInfo() bool { return false }
func (a matrixAlg) WeightsInto(w *Matrix, state *SystemState) {
	k := a.m.Dim()
	w.Reset(k)
	for i := 0; i < k; i++ {
		if !state.Alive(topology.NodeID(i)) {
			continue
		}
		for j, v := range a.m.Row(i) {
			if i != j && state.Alive(topology.NodeID(j)) {
				w.Set(i, j, v)
			}
		}
	}
}

// TestDeltaPropertyRandomPerturbations is the fuzz-style satellite: random
// single-weight (and occasional burst) perturbations on a random directed
// graph — weight changes, link deletions, link insertions — asserting after
// every step that the incremental repair matches a from-scratch computation
// byte-identically, that the from-scratch sparse pass matches the dense
// Floyd–Warshall oracle, and that the repair's adjacency — reweighted in
// place when only finite weights moved, rebuilt when an entry moved to or
// from Inf — equals one built from the new weights, on both sides of the
// default crossovers: every recompute after the first runs the repair,
// whatever its label. Weights are multiples of 1/8 so path sums carry no
// rounding, which the dense oracle needs to agree.
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
			before := NewMatrix(k)
			var patched, rebuilt int
			for step := 0; step < 400; step++ {
				copy(before.cells, w.cells)
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
				fullPasses := dw.fullPasses
				dPlan := dw.ComputeInto(alg, state, dests, dPrev)
				fPlan := ComputeInto(ws, alg, state, dests, fPrev)
				assertPlansIdentical(t, dPlan, fPlan)
				assertPathsIdentical(t, fPlan.Paths, denseAllPairs(&w))
				var fresh adjacency
				fresh.build(&w)
				assertAdjacencyIdentical(t, &dw.ws.sp.g, &fresh)
				if dw.fullPasses == fullPasses && len(dw.changed) > 0 {
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

// TestRepairFirstMatchesFullPass pins what a DeltaWorkspace reports apart
// from what it runs, under the default crossovers. A hub-and-mesh weight
// matrix — vertex 0 has cheap edges to and from every vertex, so a change
// at the hub moves most shortest paths — takes random perturbations: one
// edge reweighted, raised to Inf or restored from it; up to an eighth of
// the edges reweighted at once; one hub edge reweighted; a node death or
// revival; a deadlock flip. Forced-full steps and dimension changes are
// mixed in. After every step the plan must be byte-identical to a fresh
// Workspace's, Stats must equal the classification recomputed by an oracle
// (liveness change, then more than 20% of K dirty, then more than 60% of
// K² affected pairs counted by markAffectedOracle), and the full pass must
// have run exactly when the step was the first, changed the dimension or
// was forced. The test fails if any label, any reason for either, any kind
// of perturbation, or a dirty set of exactly 20% of K never occurs.
func TestRepairFirstMatchesFullPass(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	weight := func(lo, hi int) float64 { return float64(lo*8+rng.Intn((hi-lo)*8+1)) * 0.125 }
	type world struct {
		base  Matrix // weights with every node alive; matrixAlg drops dead endpoints
		links [][2]int
		state *SystemState
		dests map[app.ModuleID][]topology.NodeID
		dead  []int
	}
	newWorld := func(n int) *world {
		mesh := topology.MustMesh(n, n, topology.DefaultSpacingCM)
		k := mesh.Graph.NodeCount()
		w := &world{base: NewMatrix(k), state: fullState(mesh.Graph, 8), dests: checkerboardDests(mesh.Graph)}
		for _, l := range mesh.Graph.Links() {
			w.links = append(w.links, [2]int{int(l.From), int(l.To)})
			w.base.Set(int(l.From), int(l.To), weight(2, 4))
		}
		for v := 1; v < k; v++ {
			w.base.Set(0, v, weight(1, 2))
			w.base.Set(v, 0, weight(1, 2))
		}
		return w
	}
	worlds := []*world{newWorld(6), newWorld(5)}
	cur := worlds[0]

	dw := NewDeltaWorkspace()
	var want DeltaStats
	var prevW Matrix
	var prevAlive []bool
	var prevSucc []topology.NodeID
	var dPrev, fPrev *Tables
	seen := map[string]int{}
	for step := 0; step < 600; step++ {
		dimChange := step > 0 && step%150 == 0
		if dimChange {
			cur = worlds[step/150%2]
			dPrev, fPrev = nil, nil // the old tables have the other dimension
		}
		forced := step%23 == 11
		k := cur.base.Dim()
		switch r := rng.Float64(); {
		case r < 0.35:
			l := cur.links[rng.Intn(len(cur.links))]
			v := weight(2, 4)
			if cur.base.At(l[0], l[1]) == Inf {
				seen["from Inf"]++
			} else if rng.Intn(3) == 0 {
				v = Inf
				seen["to Inf"]++
			}
			cur.base.Set(l[0], l[1], v)
		case r < 0.5:
			for n := 1 + rng.Intn(len(cur.links)/8); n > 0; n-- {
				if l := cur.links[rng.Intn(len(cur.links))]; cur.base.At(l[0], l[1]) < Inf {
					cur.base.Set(l[0], l[1], weight(2, 4))
				}
			}
		case r < 0.65:
			v := 1 + rng.Intn(k-1)
			if rng.Intn(2) == 0 {
				cur.base.Set(0, v, weight(1, 2))
			} else {
				cur.base.Set(v, 0, weight(1, 2))
			}
		case r < 0.8:
			if n := len(cur.dead); n > 0 && (n == 3 || rng.Intn(2) == 0) {
				cur.state.Status[cur.dead[n-1]].Alive = true
				cur.dead = cur.dead[:n-1]
				seen["revival"]++
			} else if v := rng.Intn(k); cur.state.Status[v].Alive {
				cur.state.Status[v].Alive = false
				cur.dead = append(cur.dead, v)
				seen["death"]++
			}
		default:
			st := &cur.state.Status[rng.Intn(k)]
			st.Deadlocked = !st.Deadlocked
		}

		alg := matrixAlg{m: &cur.base}
		if forced {
			dw.SetMode(RecomputeFull)
		}
		passes := dw.fullPasses
		dPlan := dw.ComputeInto(alg, cur.state, cur.dests, dPrev)
		fPlan := ComputeInto(NewWorkspace(), alg, cur.state, cur.dests, fPrev)
		dw.SetMode(RecomputeIncremental)
		assertPlansIdentical(t, dPlan, fPlan)
		newW := weightsOf(alg, cur.state)
		var fresh adjacency
		fresh.build(&newW)
		assertAdjacencyIdentical(t, &dw.ws.sp.g, &fresh)

		// The oracle: the classification as it was when the label decided
		// the path.
		alive := make([]bool, k)
		for i := range alive {
			alive[i] = cur.state.Alive(topology.NodeID(i))
		}
		wantPass := step == 0 || dimChange || forced
		switch {
		case step == 0:
			seen["first computation"]++
		case dimChange:
			seen["dimension change"]++
		case forced:
			seen["forced full"]++
		case !slices.Equal(alive, prevAlive):
			seen["liveness label"]++
		}
		if wantPass || !slices.Equal(alive, prevAlive) {
			want.Full++
		} else {
			dirty, nd := make([]bool, k), 0
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if newW.At(i, j) != prevW.At(i, j) {
						dirty[i], dirty[j] = true, true
					}
				}
			}
			for _, d := range dirty {
				if d {
					nd++
				}
			}
			if float64(nd) == 0.20*float64(k) {
				seen["dirty at 20% of K"]++
			}
			total := 0
			for j := 0; j < k; j++ {
				total += markAffectedOracle(prevSucc, dirty, j, k)
			}
			switch {
			case float64(nd) > 0.20*float64(k):
				want.Full++
				seen["dirty label"]++
			case total > int(0.60*float64(k)*float64(k)):
				want.Full++
				seen["affected label"]++
			default:
				want.Incremental++
				want.DirtyVertices += nd
				want.AffectedPairs += total
				seen["incremental label"]++
			}
		}
		if got := dw.Stats(); got != want {
			t.Fatalf("step %d: stats %+v, oracle %+v", step, got, want)
		}
		wantRan := 0
		if wantPass {
			wantRan = 1
		}
		if ran := dw.fullPasses - passes; ran != wantRan {
			t.Fatalf("step %d: %d full passes ran, want %d: the full pass runs exactly on a first, dimension-changing or forced step", step, ran, wantRan)
		}
		prevW, prevAlive, prevSucc = newW, alive, slices.Clone(fPlan.Paths.succ)
		dPrev, fPrev = dPlan.Tables, fPlan.Tables
	}
	t.Logf("occurrences: %v", seen)
	for _, what := range []string{"first computation", "dimension change", "forced full", "liveness label",
		"dirty label", "affected label", "incremental label", "death", "revival", "to Inf", "from Inf",
		"dirty at 20% of K"} {
		if seen[what] == 0 {
			t.Errorf("no step exercised %q", what)
		}
	}
}

// TestDeltaCrossoverPolicy pins the recompute labels and which recomputes
// run the full pass: an unchanged snapshot and a one-node drain are labelled
// incremental, a change past the dirty crossover and a node death are
// labelled full, and only the first computation and forced-full mode run
// the full pass; everything else is repaired — all byte-identical to the
// full pass.
func TestDeltaCrossoverPolicy(t *testing.T) {
	mesh := topology.MustMesh(6, 6, topology.DefaultSpacingCM)
	dests := checkerboardDests(mesh.Graph)
	state := fullState(mesh.Graph, 8)
	var alg Algorithm = NewEAR()

	dw := NewDeltaWorkspace()
	ws := NewWorkspace()
	check := func(wantFull, wantIncr, wantPasses int) {
		t.Helper()
		dPlan := dw.ComputeInto(alg, state, dests, nil)
		fPlan := ComputeInto(ws, alg, state, dests, nil)
		assertPlansIdentical(t, dPlan, fPlan)
		if s := dw.Stats(); s.Full != wantFull || s.Incremental != wantIncr {
			t.Fatalf("stats = %+v, want Full %d Incremental %d", s, wantFull, wantIncr)
		}
		if dw.fullPasses != wantPasses {
			t.Fatalf("%d full passes ran, want %d", dw.fullPasses, wantPasses)
		}
	}

	check(1, 0, 1) // first computation: full pass
	check(1, 1, 1) // unchanged snapshot: free repair (empty dirty set)

	before := dw.Stats()
	state.Status[14].BatteryLevel = 3
	check(1, 2, 1) // one drained node: incremental
	if dw.Stats().DirtyVertices <= before.DirtyVertices {
		t.Fatal("incremental repair did not record dirty vertices")
	}
	for i := range state.Status {
		state.Status[i].BatteryLevel = 1
	}
	before = dw.Stats()
	check(2, 2, 1) // broad change: labelled full, repaired
	if s := dw.Stats(); s.DirtyVertices != before.DirtyVertices || s.AffectedPairs != before.AffectedPairs {
		t.Fatalf("a full-labelled recompute added change volume: %+v, was %+v", s, before)
	}

	// Eight spread drains dirty well over 20% of the 36 vertices.
	for n := 0; n < 36; n += 5 {
		state.Status[n].BatteryLevel = 3
	}
	check(3, 2, 1)

	state.Status[15].Alive = false
	check(4, 2, 1) // node death: labelled full, repaired

	dw.SetMode(RecomputeFull)
	state.Status[16].BatteryLevel = 0
	check(5, 2, 2) // forced mode: the full pass runs

	dw.SetMode(RecomputeIncremental)
	state.Status[17].BatteryLevel = 0
	check(5, 3, 2)
}

// TestDeltaComputeSteadyStateZeroAllocs extends the Workspace zero-alloc
// contract to the repair: once the workspace (including the repair
// scratch) is warm, recomputes must not allocate — battery drains labelled
// incremental, and node deaths, revivals and changes past the dirty
// crossover, which are labelled full but repaired as well.
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
	// Each step is a one-node drain, a node death or revival, or sixteen
	// drains at once (past the 0.20·64 dirty crossover), in turn.
	step := 0
	recompute := func() {
		switch step % 3 {
		case 0:
			st := &state.Status[step%len(state.Status)]
			st.BatteryLevel = (st.BatteryLevel + 1) % 8
		case 1:
			st := &state.Status[27]
			st.Alive = !st.Alive
		case 2:
			for n := step % 4; n < len(state.Status); n += 4 {
				st := &state.Status[n]
				st.BatteryLevel = (st.BatteryLevel + 1) % 8
			}
		}
		step++
		prev = dw.ComputeInto(alg, state, dests, prev).Tables
	}
	for i := 0; i < 6; i++ {
		recompute()
	}
	before, passes := dw.Stats(), dw.fullPasses
	allocs := testing.AllocsPerRun(64, recompute)
	if allocs != 0 {
		t.Errorf("steady-state DeltaWorkspace.ComputeInto allocated %.1f times per run, want 0", allocs)
	}
	s := dw.Stats()
	if dw.fullPasses != passes {
		t.Fatalf("%d full passes ran in the steady state, want 0", dw.fullPasses-passes)
	}
	// AllocsPerRun makes one extra warm-up call: 65 steps, 21 or 22 of each kind.
	if s.Incremental-before.Incremental < 20 || s.Full-before.Full < 40 {
		t.Fatalf("labels %+v after %+v: the steady state did not mix incremental drains with full-labelled deaths and broad changes", s, before)
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
// 16x16 mesh as the change grows: each drained-N sub-benchmark drains N
// nodes per recompute (each drained node dirties itself and its
// in-neighbours), and repair/death kills one node and revives it per
// iteration (two recomputes per op). The workspace repairs every recompute
// whatever its full/incremental label, so the crossover constants in
// delta.go are output policy, not this break-even. Measured on a 2-CPU Xeon
// container (-benchtime 100x): the full pass takes about 7.5 ms, the repair
// 1.5 ms at one drained node, 5 ms at 16 and 7.5 ms at 32, so it loses from
// about 32 drained nodes at once; about eleven drained nodes, five dirty
// vertices each, already pass the 0.20·K dirty crossover. repair/death takes
// about 1.6 ms for its two recomputes.
func BenchmarkDeltaCrossover(b *testing.B) {
	const meshSize = 16
	setup := func(b *testing.B, mode RecomputeMode) (*DeltaWorkspace, *SystemState, func()) {
		mesh := topology.MustMesh(meshSize, meshSize, 1)
		state := fullState(mesh.Graph, 8)
		dests := checkerboardDests(mesh.Graph)
		dw := NewDeltaWorkspace()
		dw.SetMode(mode)
		var alg Algorithm = NewEAR()
		var prev *Tables
		recompute := func() { prev = dw.ComputeInto(alg, state, dests, prev).Tables }
		for i := 0; i < 3; i++ {
			state.Status[i].BatteryLevel = 6
			recompute()
		}
		// One death and revival sizes the dead-node buffers.
		for _, alive := range []bool{false, true} {
			state.Status[meshSize].Alive = alive
			recompute()
		}
		b.ReportAllocs()
		b.ResetTimer()
		return dw, state, recompute
	}
	run := func(b *testing.B, drained int, mode RecomputeMode) {
		_, state, recompute := setup(b, mode)
		for i := 0; i < b.N; i++ {
			for d := 0; d < drained; d++ {
				st := &state.Status[(i*drained+d*5)%len(state.Status)]
				st.BatteryLevel = (st.BatteryLevel + 1) % 8
			}
			recompute()
		}
	}
	b.Run("full", func(b *testing.B) { run(b, 1, RecomputeFull) })
	for _, drained := range []int{1, 2, 4, 8, 16, 32, 51} {
		b.Run(fmt.Sprintf("repair/drained-%d", drained), func(b *testing.B) {
			run(b, drained, RecomputeIncremental)
		})
	}
	b.Run("repair/death", func(b *testing.B) {
		dw, state, recompute := setup(b, RecomputeIncremental)
		for i := 0; i < b.N; i++ {
			st := &state.Status[(i*37)%len(state.Status)]
			st.Alive = false
			recompute()
			st.Alive = true
			recompute()
		}
		if dw.fullPasses != 1 {
			b.Fatalf("%d full passes ran, want only the first", dw.fullPasses)
		}
	})
}
