package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/app"
	"repro/internal/topology"
)

// refBuildTables is the per-cell phase 3 the row-wise buildTablesInto
// replaced: liveness, reachability and successors read through the
// accessors for every (node, destination) and (node, duplicate) pair, into
// freshly cleared tables. It is the oracle for TestRowWiseTablesMatchPerCell.
func refBuildTables(state *SystemState, sp *ShortestPaths, dests *destSet, prev *Tables) *Tables {
	k := state.Graph.NodeCount()
	out := &Tables{
		nodes:   k,
		modules: dests.modules,
		has:     make([]bool, k),
		known:   append([]bool(nil), dests.known...),
		routes:  make([]Route, k*dests.modules),
		nextHop: make([]topology.NodeID, k*k),
	}
	fill(out.routes, invalidRoute)
	fill(out.nextHop, topology.Invalid)
	for n := 0; n < k; n++ {
		node := topology.NodeID(n)
		if !state.Alive(node) {
			continue
		}
		out.has[n] = true
		hopRow := out.nextHop[n*k : (n+1)*k]
		for d := 0; d < k; d++ {
			dest := topology.NodeID(d)
			if dest == node || !state.Alive(dest) {
				continue
			}
			if sp.Reachable(node, dest) {
				hopRow[d] = sp.Succ(node, dest)
			}
		}
		deadlocked := state.StatusOf(node).Deadlocked
		routeRow := out.routes[n*out.modules : (n+1)*out.modules]
		for m := 0; m < dests.modules; m++ {
			if !dests.known[m] {
				continue
			}
			moduleID := app.ModuleID(m)
			blockedHop := topology.Invalid
			if deadlocked && prev != nil {
				if prevRoute, ok := prev.RouteTo(node, moduleID); ok {
					blockedHop = prevRoute.NextHop
				}
			}
			best := invalidRoute
			fallback := best
			for _, dup := range dests.dups[m] {
				if !state.Alive(dup) || !sp.Reachable(node, dup) {
					continue
				}
				hop := sp.Succ(node, dup)
				candidate := Route{Dest: dup, NextHop: hop, Distance: sp.Dist(node, dup)}
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
			routeRow[m] = best
		}
	}
	return out
}

// better reports whether candidate is preferable to current: strictly smaller
// distance, with ties broken towards the smaller destination ID.
func better(candidate, current Route) bool {
	if !candidate.Valid() {
		return false
	}
	if !current.Valid() {
		return true
	}
	if candidate.Distance != current.Distance {
		return candidate.Distance < current.Distance
	}
	return candidate.Dest < current.Dest
}

// TestRowWiseTablesMatchPerCell is the phase-3 property test: on random
// states of meshes 4x4-16x16 under SDR and EAR, the row-wise builder — run
// into reused, never-cleared ping-pong buffers and chaining its own prev
// tables — must equal refBuildTables byte for byte (raw arrays and
// Plan.Fingerprint). The states cover dead sources and duplicates, Status
// slices shorter than K, paths computed before the deaths, deadlocked nodes
// with prev tables (including the all-blocked fallback), failed links that
// leave pairs unreachable, module ID gaps, and SDR's distance ties; the test
// fails if any of these never occurred.
func TestRowWiseTablesMatchPerCell(t *testing.T) {
	var deadSources, deadDups, shortStatus, stalePaths, fallbacks, unreachable, ties int
	for _, meshSize := range []int{4, 5, 7, 10, 13, 16} {
		for _, alg := range []Algorithm{SDR{}, NewEAR()} {
			t.Run(fmt.Sprintf("%dx%d/%s", meshSize, meshSize, alg.Name()), func(t *testing.T) {
				mesh := topology.MustMesh(meshSize, meshSize, topology.DefaultSpacingCM)
				if _, _, err := topology.FailLinks(mesh.Graph, 0.2, uint64(meshSize)); err != nil {
					t.Fatal(err)
				}
				k := mesh.Graph.NodeCount()
				rng := rand.New(rand.NewSource(int64(meshSize)*13 + int64(len(alg.Name()))))
				// Module IDs 1, 3, 4 and 7: gaps at 0, 2, 5 and 6. Module 7
				// has a single duplicate, so a deadlocked node routing to it
				// has no alternative to its blocked hop.
				dests := map[app.ModuleID][]topology.NodeID{7: {topology.NodeID(rng.Intn(k))}}
				for n := 0; n < k; n++ {
					m := []app.ModuleID{1, 3, 4}[rng.Intn(3)]
					dests[m] = append(dests[m], topology.NodeID(n))
				}
				// Every other round drops module 7, so the buffers are
				// reused at a different module count.
				fewer := map[app.ModuleID][]topology.NodeID{1: dests[1], 3: dests[3], 4: dests[4]}

				var (
					w        Matrix
					sp       ShortestPaths
					ds       destSet
					buf      [2]Tables
					prev     *Tables
					refPrev  *Tables
					statuses = make([]NodeStatus, k)
				)
				for round := 0; round < 12; round++ {
					for i := range statuses {
						statuses[i] = NodeStatus{
							Alive:        rng.Float64() > 0.12,
							BatteryLevel: rng.Intn(8),
							Deadlocked:   rng.Float64() < 0.3,
						}
					}
					state := &SystemState{Graph: mesh.Graph, Levels: 8, Status: statuses}
					if round%3 == 1 {
						state.Status = statuses[:k-1-rng.Intn(3)]
						shortStatus++
					}
					d := dests
					if round%2 == 1 {
						d = fewer
					}
					// Every fourth round computes the paths on a snapshot in
					// which everyone is still alive, so dead sources, columns
					// and duplicates are reachable and only phase 3's own
					// liveness checks exclude them.
					pathState := state
					if round%4 == 3 {
						pathState = fullState(mesh.Graph, 8)
						stalePaths++
					}
					alg.WeightsInto(&w, pathState)
					sp.ComputeFrom(&w)
					ds.fill(d)
					out := &buf[round%2]
					buildTablesInto(out, state, &sp, &ds, prev)
					want := refBuildTables(state, &sp, &ds, refPrev)
					assertPlansIdentical(t, &Plan{Paths: &sp, Tables: out}, &Plan{Paths: &sp, Tables: want})

					for n := 0; n < k; n++ {
						node := topology.NodeID(n)
						if !state.Alive(node) {
							deadSources++
							continue
						}
						for m, dups := range d {
							var dists []float64
							for _, dup := range dups {
								if !state.Alive(dup) {
									deadDups++
								} else if sp.Reachable(node, dup) {
									dists = append(dists, sp.Dist(node, dup))
								} else {
									unreachable++
								}
							}
							for i := range dists {
								for j := i + 1; j < len(dists); j++ {
									if dists[i] == dists[j] {
										ties++
									}
								}
							}
							if !state.StatusOf(node).Deadlocked || refPrev == nil {
								continue
							}
							old, _ := refPrev.RouteTo(node, m)
							got, _ := want.RouteTo(node, m)
							if old.NextHop != topology.Invalid && got.NextHop == old.NextHop && got.Dest != node {
								fallbacks++
							}
						}
					}
					prev, refPrev = out, want
				}
			})
		}
	}
	for name, n := range map[string]int{
		"dead sources": deadSources, "dead duplicates": deadDups, "short Status": shortStatus, "stale paths": stalePaths,
		"all-blocked fallbacks": fallbacks, "unreachable duplicates": unreachable, "distance ties": ties,
	} {
		if n == 0 {
			t.Errorf("no %s occurred", name)
		}
	}
}
