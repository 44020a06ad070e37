package routing

import (
	"repro/internal/app"
	"repro/internal/topology"
)

// Route is the phase-3 decision for one (source node, module) pair: which
// duplicate of the module the next operation should be sent to, the first
// hop towards it, and the (weighted) distance of the chosen path.
type Route struct {
	Dest     topology.NodeID
	NextHop  topology.NodeID
	Distance float64
}

// Valid reports whether the route points at a reachable destination.
func (r Route) Valid() bool { return r.Dest != topology.Invalid && r.NextHop != topology.Invalid }

// invalidRoute is the sentinel stored for (node, module) pairs phase 3 could
// not route.
var invalidRoute = Route{Dest: topology.Invalid, NextHop: topology.Invalid, Distance: Inf}

// Tables holds the routing tables of every alive node as dense slice-backed
// storage: per-(node, module) routes and a per-(node, destination) successor
// matrix, both flat and index-addressed, so the controller can rebuild them
// every frame without allocating.
type Tables struct {
	nodes   int
	modules int // exclusive upper bound on ModuleID (IDs are 1-based)

	has     []bool            // per node: the node was alive and got a table
	known   []bool            // per module: the module had a duplicate list
	routes  []Route           // nodes*modules, row-major by node
	nextHop []topology.NodeID // nodes*nodes, row-major by source node
}

// reset re-dimensions the tables, reusing backing storage without clearing
// it: phase 3 writes every entry.
func (ts *Tables) reset(nodes, modules int) {
	ts.nodes, ts.modules = nodes, modules
	ts.has = sized(ts.has, nodes)
	ts.known = sized(ts.known, modules)
	ts.routes = sized(ts.routes, nodes*modules)
	ts.nextHop = sized(ts.nextHop, nodes*nodes)
}

// sized returns s with length n, reusing s's capacity; the contents are
// left as they were.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resized returns s with length n and every element zeroed, reusing s's
// capacity.
func resized[T any](s []T, n int) []T {
	s = sized(s, n)
	clear(s)
	return s
}

// fill sets every element of s to v.
func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// Has reports whether node received a routing table (i.e. was alive when the
// tables were built).
func (ts *Tables) Has(node topology.NodeID) bool {
	return ts != nil && int(node) >= 0 && int(node) < ts.nodes && ts.has[node]
}

// Len returns the number of nodes that received a routing table.
func (ts *Tables) Len() int {
	if ts == nil {
		return 0
	}
	n := 0
	for _, h := range ts.has {
		if h {
			n++
		}
	}
	return n
}

// RouteTo returns the route downloaded to node for the given module, if any.
func (ts *Tables) RouteTo(node topology.NodeID, id app.ModuleID) (Route, bool) {
	if !ts.Has(node) || int(id) < 0 || int(id) >= ts.modules || !ts.known[id] {
		return Route{}, false
	}
	return ts.routes[int(node)*ts.modules+int(id)], true
}

// NextHop returns the next hop from node `from` towards destination `dest`,
// or topology.Invalid if unknown.
func (ts *Tables) NextHop(from, dest topology.NodeID) topology.NodeID {
	if !ts.Has(from) {
		return topology.Invalid
	}
	if from == dest {
		return dest
	}
	if int(dest) < 0 || int(dest) >= ts.nodes {
		return topology.Invalid
	}
	return ts.nextHop[int(from)*ts.nodes+int(dest)]
}

// Table is a view of one node's routing information within Tables: the chosen
// destination per module plus the successor towards every reachable node,
// which the node uses to relay packets that are merely passing through.
type Table struct {
	ts   *Tables
	node topology.NodeID
}

// Table returns the view of node's routing table; ok is false when the node
// has none (it was dead when the tables were built).
func (ts *Tables) Table(node topology.NodeID) (Table, bool) {
	if !ts.Has(node) {
		return Table{}, false
	}
	return Table{ts: ts, node: node}, true
}

// RouteTo returns the route for the given module, if any.
func (t Table) RouteTo(id app.ModuleID) (Route, bool) {
	if t.ts == nil {
		return Route{}, false
	}
	return t.ts.RouteTo(t.node, id)
}

// NextHopTo returns the successor from this node towards dest, or
// topology.Invalid if dest is unknown or unreachable.
func (t Table) NextHopTo(dest topology.NodeID) topology.NodeID {
	if t.ts == nil {
		return topology.Invalid
	}
	return t.ts.NextHop(t.node, dest)
}

// destSet is the dense, index-addressed form of the module duplicate lists
// (S_i). It aliases the caller's duplicate slices and is reused across
// recomputes, together with the liveness scratch phase 3 hoists out of its
// per-node loop.
type destSet struct {
	modules int
	known   []bool
	dups    [][]topology.NodeID

	dead     []int32           // ascending IDs of the dead nodes
	alive    []topology.NodeID // alive duplicates, grouped by module
	aliveOff []int32           // module m's are alive[aliveOff[m]:aliveOff[m+1]]
}

// fill re-populates the set from the map form, reusing backing storage.
func (d *destSet) fill(destinations map[app.ModuleID][]topology.NodeID) {
	maxID := -1
	for id := range destinations {
		if int(id) > maxID {
			maxID = int(id)
		}
	}
	d.modules = maxID + 1
	d.known = resized(d.known, d.modules)
	if cap(d.dups) < d.modules {
		d.dups = make([][]topology.NodeID, d.modules)
	}
	d.dups = d.dups[:d.modules]
	for i := range d.dups {
		d.dups[i] = nil
	}
	for id, dups := range destinations {
		if int(id) < 0 {
			continue
		}
		d.known[id] = true
		d.dups[id] = dups
	}
}

// hoist records, once per phase-3 call, which of the k nodes are dead and
// which duplicates are alive. A duplicate outside 0..k-1 counts as dead.
func (d *destSet) hoist(state *SystemState, k int) {
	d.dead = sized(d.dead, k)[:0]
	for n := 0; n < k; n++ {
		if !state.Alive(topology.NodeID(n)) {
			d.dead = append(d.dead, int32(n))
		}
	}
	d.alive = d.alive[:0]
	d.aliveOff = sized(d.aliveOff, d.modules+1)
	d.aliveOff[0] = 0
	for m, dups := range d.dups {
		for _, dup := range dups {
			if int(dup) < k && state.Alive(dup) {
				d.alive = append(d.alive, dup)
			}
		}
		d.aliveOff[m+1] = int32(len(d.alive))
	}
}

// BuildTables runs phase 3 (Fig 6): for every alive node and every module it
// selects the duplicate with the smallest phase-2 distance, skipping — when
// the node currently reports a deadlock — the next hop recorded in its
// previous routing table so the stuck job is redirected along an unlocked
// path. destinations lists the duplicates S_i of every module; dead
// duplicates are ignored. prev may be nil on the first invocation. Hot paths
// should use ComputeInto with a reused Workspace instead.
func BuildTables(state *SystemState, sp *ShortestPaths, destinations map[app.ModuleID][]topology.NodeID, prev *Tables) *Tables {
	var ds destSet
	ds.fill(destinations)
	ts := &Tables{}
	buildTablesInto(ts, state, sp, &ds, prev)
	return ts
}

// buildTablesInto is the allocation-free phase-3 core shared by BuildTables
// and ComputeInto. out must not alias prev. It works row by row: an alive
// node's next-hop row is its successor row with the diagonal and the dead
// columns invalidated (a successor is Invalid exactly when its distance is
// Inf, see ShortestPaths), and each route scans only the alive duplicates.
func buildTablesInto(out *Tables, state *SystemState, sp *ShortestPaths, dests *destSet, prev *Tables) {
	k := state.Graph.NodeCount()
	out.reset(k, dests.modules)
	copy(out.known, dests.known)
	dests.hoist(state, k)
	dead := dests.dead
	for n := 0; n < k; n++ {
		hopRow := out.nextHop[n*k : (n+1)*k]
		routeRow := out.routes[n*out.modules : (n+1)*out.modules]
		if len(dead) > 0 && int(dead[0]) == n {
			dead = dead[1:]
			out.has[n] = false
			fill(hopRow, topology.Invalid)
			fill(routeRow, invalidRoute)
			continue
		}
		out.has[n] = true
		succRow := sp.succ[n*k : (n+1)*k]
		copy(hopRow, succRow)
		hopRow[n] = topology.Invalid
		for _, d := range dests.dead {
			hopRow[d] = topology.Invalid
		}
		node := topology.NodeID(n)
		distRow := sp.dist.Row(n)
		deadlocked := prev != nil && state.StatusOf(node).Deadlocked
		for m := range routeRow {
			if !dests.known[m] {
				routeRow[m] = invalidRoute
				continue
			}
			dups := dests.alive[dests.aliveOff[m]:dests.aliveOff[m+1]]
			best := nearest(distRow, succRow, dups, node, topology.Invalid)
			// A deadlocked node avoids the next hop of its previous route.
			// If every alternative goes through that blocked port, it keeps
			// the unconstrained optimum rather than leaving the module
			// unreachable (the deadlock will be reported again next frame).
			if deadlocked {
				if prevRoute, ok := prev.RouteTo(node, app.ModuleID(m)); ok {
					if alt := nearest(distRow, succRow, dups, node, prevRoute.NextHop); alt.Valid() {
						best = alt
					}
				}
			}
			routeRow[m] = best
		}
	}
}

// nearest returns the route from node to the closest of dups — smaller
// distance first, then smaller Dest — given node's distance and successor
// rows, skipping the duplicates other than node itself whose first hop is
// blocked. An unreachable duplicate's Inf never beats the invalid route it
// starts from, and a reachable one never has an Invalid first hop.
func nearest(distRow []float64, succRow, dups []topology.NodeID, node, blocked topology.NodeID) Route {
	best := invalidRoute
	for _, dup := range dups {
		if d := distRow[dup]; d < best.Distance || d == best.Distance && dup < best.Dest {
			if hop := succRow[dup]; hop != blocked || dup == node {
				best = Route{Dest: dup, NextHop: hop, Distance: d}
			}
		}
	}
	return best
}
