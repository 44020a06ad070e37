package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/app"
	"repro/internal/topology"
)

// This file pins the slice-backed control plane, with its sparse phase 2, to
// the semantics of the original map-backed implementation: refCompute below
// is a faithful transcription of the pre-refactor phases 1-3 (map snapshot,
// [][]float64 matrices, the dense Floyd–Warshall pass of Fig 5, map tables),
// and the equivalence test asserts both produce identical plans on meshes
// 4-16 with dead nodes, deadlock flags, link faults and several EAR Q.
// denseAllPairs is the same Floyd–Warshall pass on a Matrix, the oracle for
// phase 2 alone. The file also holds the AllocsPerRun regression guard for
// the steady-state ComputeInto path.

// refTable mirrors the old map-backed Table.
type refTable struct {
	byModule  map[app.ModuleID]Route
	nextHopTo map[topology.NodeID]topology.NodeID
}

// refCompute is the pre-refactor routing computation, kept verbatim (modulo
// the map-based snapshot being reconstructed from the dense one).
func refCompute(alg Algorithm, state *SystemState, destinations map[app.ModuleID][]topology.NodeID, prev map[topology.NodeID]refTable) (dist [][]float64, succ [][]topology.NodeID, tables map[topology.NodeID]refTable) {
	k := state.Graph.NodeCount()
	status := make(map[topology.NodeID]NodeStatus, k)
	for i, st := range state.Status {
		status[topology.NodeID(i)] = st
	}
	alive := func(id topology.NodeID) bool { return status[id].Alive }

	// Phase 1: weight matrix.
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, k)
		for j := range w[i] {
			if i != j {
				w[i][j] = Inf
			}
		}
	}
	params := DefaultEARParams()
	if e, ok := alg.(EAR); ok && e.Params.Levels != 0 {
		params = e.Params
	}
	for _, l := range state.Graph.Links() {
		if !alive(l.From) || !alive(l.To) {
			continue
		}
		if alg.NeedsBatteryInfo() {
			w[l.From][l.To] = params.Penalty(status[l.To].BatteryLevel) * l.LengthCM
		} else {
			w[l.From][l.To] = l.LengthCM
		}
	}

	// Phase 2: Floyd-Warshall with successor matrix.
	dist = make([][]float64, k)
	succ = make([][]topology.NodeID, k)
	for i := 0; i < k; i++ {
		dist[i] = make([]float64, k)
		succ[i] = make([]topology.NodeID, k)
		for j := 0; j < k; j++ {
			dist[i][j] = w[i][j]
			switch {
			case i == j:
				succ[i][j] = topology.NodeID(i)
			case w[i][j] < Inf:
				succ[i][j] = topology.NodeID(j)
			default:
				succ[i][j] = topology.Invalid
			}
		}
	}
	for n := 0; n < k; n++ {
		for i := 0; i < k; i++ {
			if i == n || dist[i][n] == Inf {
				continue
			}
			for j := 0; j < k; j++ {
				if j == n || j == i || dist[n][j] == Inf {
					continue
				}
				through := dist[i][n] + dist[n][j]
				switch {
				case through < dist[i][j]:
					dist[i][j] = through
					succ[i][j] = succ[i][n]
				case through == dist[i][j] && succ[i][n] != topology.Invalid &&
					(succ[i][j] == topology.Invalid || succ[i][n] < succ[i][j]):
					succ[i][j] = succ[i][n]
				}
			}
		}
	}

	// Phase 3: routing tables.
	tables = make(map[topology.NodeID]refTable, k)
	for n := 0; n < k; n++ {
		node := topology.NodeID(n)
		if !alive(node) {
			continue
		}
		table := refTable{
			byModule:  make(map[app.ModuleID]Route, len(destinations)),
			nextHopTo: make(map[topology.NodeID]topology.NodeID, k),
		}
		for d := 0; d < k; d++ {
			dest := topology.NodeID(d)
			if dest == node || !alive(dest) {
				continue
			}
			if dist[node][dest] < Inf {
				table.nextHopTo[dest] = succ[node][dest]
			}
		}
		deadlocked := status[node].Deadlocked
		for moduleID, dups := range destinations {
			blockedHop := topology.Invalid
			if deadlocked && prev != nil {
				if prevRoute, ok := prev[node].byModule[moduleID]; ok {
					blockedHop = prevRoute.NextHop
				}
			}
			best := Route{Dest: topology.Invalid, NextHop: topology.Invalid, Distance: Inf}
			fallback := best
			for _, dup := range dups {
				if !alive(dup) || dist[node][dup] == Inf {
					continue
				}
				hop := succ[node][dup]
				candidate := Route{Dest: dup, NextHop: hop, Distance: dist[node][dup]}
				if better(candidate, fallback) {
					fallback = candidate
				}
				if blockedHop != topology.Invalid && hop == blockedHop && dup != node {
					continue
				}
				if better(candidate, best) {
					best = candidate
				}
			}
			if !best.Valid() {
				best = fallback
			}
			table.byModule[moduleID] = best
		}
		tables[node] = table
	}
	return dist, succ, tables
}

// denseAllPairs is the dense O(K³) Floyd–Warshall pass with the
// smaller-successor tie-breaking of Fig 5, which phase 2 ran before the
// per-destination Dijkstra pass. With exact weight arithmetic both reach
// the same canonical fixpoint, so it is the bit-level oracle for
// ShortestPaths.ComputeFrom.
func denseAllPairs(w *Matrix) *ShortestPaths {
	k := w.Dim()
	sp := &ShortestPaths{n: k, dist: NewMatrix(k), succ: make([]topology.NodeID, k*k)}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			sp.dist.Set(i, j, w.At(i, j))
			switch {
			case i == j:
				sp.succ[i*k+j] = topology.NodeID(i)
			case w.At(i, j) < Inf:
				sp.succ[i*k+j] = topology.NodeID(j)
			default:
				sp.succ[i*k+j] = topology.Invalid
			}
		}
	}
	for n := 0; n < k; n++ {
		for i := 0; i < k; i++ {
			din := sp.dist.At(i, n)
			if i == n || din == Inf {
				continue
			}
			sin := sp.succ[i*k+n]
			for j := 0; j < k; j++ {
				dnj := sp.dist.At(n, j)
				if j == n || j == i || dnj == Inf {
					continue
				}
				through, at := din+dnj, i*k+j
				switch {
				case through < sp.dist.cells[at]:
					sp.dist.cells[at], sp.succ[at] = through, sin
				case through == sp.dist.cells[at] && sin != topology.Invalid &&
					(sp.succ[at] == topology.Invalid || sin < sp.succ[at]):
					sp.succ[at] = sin
				}
			}
		}
	}
	return sp
}

// comparePlan asserts a dense plan matches the reference output exactly.
func comparePlan(t *testing.T, state *SystemState, destinations map[app.ModuleID][]topology.NodeID, plan *Plan, dist [][]float64, succ [][]topology.NodeID, tables map[topology.NodeID]refTable) {
	t.Helper()
	k := state.Graph.NodeCount()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			from, to := topology.NodeID(i), topology.NodeID(j)
			if got, want := plan.Paths.Dist(from, to), dist[i][j]; got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("Dist(%d,%d) = %g, want %g", i, j, got, want)
			}
			if got, want := plan.Paths.Succ(from, to), succ[i][j]; got != want {
				t.Fatalf("Succ(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
	if plan.Tables.Len() != len(tables) {
		t.Fatalf("tables for %d nodes, want %d", plan.Tables.Len(), len(tables))
	}
	for n := 0; n < k; n++ {
		node := topology.NodeID(n)
		ref, refHas := tables[node]
		if plan.Tables.Has(node) != refHas {
			t.Fatalf("Has(%d) = %v, want %v", n, plan.Tables.Has(node), refHas)
		}
		for moduleID := range destinations {
			got, gotOK := plan.Tables.RouteTo(node, moduleID)
			want, wantOK := ref.byModule[moduleID]
			if !refHas {
				want, wantOK = Route{}, false
			}
			if gotOK != wantOK || got != want {
				t.Fatalf("RouteTo(%d, %d) = %+v,%v, want %+v,%v", n, moduleID, got, gotOK, want, wantOK)
			}
		}
		for d := 0; d < k; d++ {
			dest := topology.NodeID(d)
			want := topology.Invalid
			if refHas {
				if node == dest {
					want = dest
				} else if hop, ok := ref.nextHopTo[dest]; ok {
					want = hop
				}
			}
			if got := plan.Tables.NextHop(node, dest); got != want {
				t.Fatalf("NextHop(%d,%d) = %d, want %d", n, d, got, want)
			}
		}
	}
}

// earQ returns EAR with base Q, named for subtests: plain "EAR" for the
// paper's Q = 2.
func earQ(q float64) (string, Algorithm) {
	p := DefaultEARParams()
	name := "EAR"
	if q != p.Q {
		name = fmt.Sprintf("EAR-Q%g", q)
	}
	p.Q = q
	return name, EAR{Params: p}
}

// TestDenseComputeMatchesMapReference drives both implementations over
// meshes 4-16, SDR and EAR at Q ∈ {2, 1.5, 3, 0.5} (values whose weight
// sums are exact, so the sparse and dense passes must agree bit for bit),
// with randomized battery levels, dead nodes, deadlock flags and link
// faults, chaining each computation's tables into the next as prev so the
// deadlock-avoidance path is exercised against real previous tables.
func TestDenseComputeMatchesMapReference(t *testing.T) {
	algs := map[string]Algorithm{"SDR": SDR{}}
	for _, q := range []float64{2, 1.5, 3, 0.5} {
		name, alg := earQ(q)
		algs[name] = alg
	}
	names := []string{"SDR", "EAR", "EAR-Q1.5", "EAR-Q3", "EAR-Q0.5"}
	for _, meshSize := range []int{4, 5, 6, 7, 8, 12, 16} {
		for _, name := range names {
			alg := algs[name]
			t.Run(fmt.Sprintf("%dx%d/%s", meshSize, meshSize, name), func(t *testing.T) {
				mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
				rng := rand.New(rand.NewSource(int64(meshSize)*31 + int64(len(name))))
				// Link faults: remove ~10% of the woven interconnects.
				if _, _, err := topology.FailLinks(mesh.Graph, 0.1, uint64(meshSize)); err != nil {
					t.Fatal(err)
				}
				k := mesh.Graph.NodeCount()
				dests := map[app.ModuleID][]topology.NodeID{}
				for _, n := range mesh.Nodes() {
					m := app.ModuleID(int(n.ID)%3 + 1)
					dests[m] = append(dests[m], n.ID)
				}

				state := fullState(mesh.Graph, 8)
				ws := NewWorkspace()
				var prev *Tables
				var refPrev map[topology.NodeID]refTable
				rounds := 6
				if meshSize >= 12 {
					rounds = 2 // the map-backed O(K³) reference dominates
				}
				for round := 0; round < rounds; round++ {
					for i := 0; i < k; i++ {
						state.Status[i] = NodeStatus{
							Alive:        rng.Float64() > 0.15,
							BatteryLevel: rng.Intn(8),
							Deadlocked:   rng.Float64() < 0.2,
						}
					}
					plan := ComputeInto(ws, alg, state, dests, prev)
					dist, succ, refTables := refCompute(alg, state, dests, refPrev)
					comparePlan(t, state, dests, plan, dist, succ, refTables)
					prev, refPrev = plan.Tables, refTables
				}
			})
		}
	}
}

// TestComputeIntoSteadyStateZeroAllocs is the perf regression guard for the
// controller hot path: once the workspace buffers are warm, recomputing the
// full three-phase plan — with changing battery levels and ping-ponged prev
// tables, exactly like the simulator's frame loop — must not allocate.
func TestComputeIntoSteadyStateZeroAllocs(t *testing.T) {
	mesh := topology.MustMesh(8, 8, 1)
	state := fullState(mesh.Graph, 8)
	dests := map[app.ModuleID][]topology.NodeID{}
	for _, n := range mesh.Nodes() {
		m := app.ModuleID(int(n.ID)%3 + 1)
		dests[m] = append(dests[m], n.ID)
	}
	ws := NewWorkspace()
	// Hoisted interface value: converting the 16-byte EAR struct to the
	// Algorithm interface allocates, and the simulator holds its algorithm as
	// an interface field for the same reason.
	var alg Algorithm = NewEAR()
	var prev *Tables
	// Two warm-up computes size both ping-pong table buffers.
	prev = ComputeInto(ws, alg, state, dests, prev).Tables
	prev = ComputeInto(ws, alg, state, dests, prev).Tables
	step := 0
	allocs := testing.AllocsPerRun(64, func() {
		st := &state.Status[step%len(state.Status)]
		st.BatteryLevel = (st.BatteryLevel + 1) % 8
		step++
		prev = ComputeInto(ws, alg, state, dests, prev).Tables
	})
	if allocs != 0 {
		t.Errorf("steady-state ComputeInto allocated %.1f times per run, want 0", allocs)
	}
}
