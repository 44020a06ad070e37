package routing

import (
	"repro/internal/app"
	"repro/internal/topology"
)

// RecomputeMode selects how a DeltaWorkspace reacts to a weight change.
type RecomputeMode int

const (
	// RecomputeIncremental (the zero value, and the default) repairs the
	// previous shortest-path trees from the set of changed weights whenever
	// a previous computation of the same dimension exists (see
	// DeltaWorkspace).
	RecomputeIncremental RecomputeMode = iota
	// RecomputeFull always reruns the full per-destination pass,
	// byte-identical to what a plain Workspace computes. It exists as the
	// equivalence oracle for the tests, the scaling experiment and the CI
	// byte-diff smoke.
	RecomputeFull
)

// String returns the CLI spelling of the mode.
func (m RecomputeMode) String() string {
	if m == RecomputeFull {
		return "full"
	}
	return "incremental"
}

// DeltaStats labels a DeltaWorkspace's recomputations by the size of their
// change. The labels are a reporting policy, not the path that ran: every
// recompute with a previous fixpoint of the same dimension runs the repair
// unless the workspace is in RecomputeFull mode. All counters are pure
// functions of the snapshot sequence, so they are deterministic and may
// appear in experiment tables.
type DeltaStats struct {
	// Full counts recomputations labelled full: the first computation, a
	// dimension change, forced mode, a liveness change, or a change past
	// either crossover.
	Full int
	// Incremental counts recomputations within both crossovers.
	Incremental int
	// DirtyVertices is the cumulative number of dirty vertices across all
	// incremental-labelled recomputations.
	DirtyVertices int
	// AffectedPairs is the cumulative number of (source, destination)
	// pairs whose previous shortest path touched a dirty vertex, across all
	// incremental-labelled recomputations.
	AffectedPairs int
}

// Crossover fractions past which a recompute is labelled full: more than
// dirtyCrossover·K dirty vertices, or more than affectedCrossover·K²
// (source, destination) pairs whose previous path touched one. They are
// output-compatibility policy and steer no execution: the label is
// reported (the "recompute split" row, sim.Result's
// Full/IncrementalRecomputes), so moving either constant changes published
// results. They were tuned against the dense Floyd–Warshall pass this
// package once used; at 16x16 the tree repair now beats the full pass up to
// about 32 drained nodes at once, three times the dirty crossover (see
// BenchmarkDeltaCrossover).
const (
	dirtyCrossover    = 0.20
	affectedCrossover = 0.60
)

// DeltaWorkspace is a Workspace variant whose phase 2 is a dynamic all-pairs
// shortest-path computation. It keeps the previous weight matrix, diffs the
// new weights against it into a list of changed edges and a dirty vertex set
// (a vertex is dirty when any edge incident to it changed weight, appeared,
// or disappeared), and repairs each destination's shortest-path tree in
// place, Ramalingam–Reps style, instead of rerunning the full
// per-destination Dijkstra pass:
//
//  1. Invalidate the subtrees hanging under the increased (or removed)
//     tree edges, succ[u][j] == v (tree children of x are its in-neighbours
//     z with succ[z][j] == x).
//  2. Seed every invalidated vertex from its still-valid out-neighbours.
//  3. Seed the decreased (or new) edges whose new + d(v, j) ≤ d(u, j), and
//     settle with the shared Dijkstra loop.
//
// A destination with no increased tree edge and no such decreased edge is
// left as it is after one scan of the changed edges. Before the repair the
// adjacency is brought up to date: when every changed edge moved between two
// finite weights — the arc set is unchanged, which the diff itself proves
// for any Algorithm — the existing arcs are reweighted in place; otherwise
// (a link fault, a node death or revival) it is rebuilt from the new matrix.
//
// Because the repair and the full pass compute the same fixpoint —
// d(u) = min over x of fl(w(u,x) + d(x)), successor the lowest-ID x attaining
// it — and that fixpoint is unique whenever no edge weight is absorbed by
// rounding (fl(w + d) > d for every edge), the repair is byte-identical to
// Workspace.ComputeInto for every EAR Q, dyadic or not.
//
// The full pass runs only when there is no previous computation, the node
// count changed, or the mode is RecomputeFull. Stats labels each recompute
// independently of that: full on those three, on any change of a node's
// liveness flag, when the dirty set exceeds 20% of K, or when more than 60%
// of the K² (source, destination) pairs had a previous shortest path
// through a dirty vertex (counted by walking each dirty vertex's subtree in
// the previous trees); incremental otherwise. The label is part of every
// simulation result.
//
// The ComputeInto contract — ping-ponged table buffers, Plan lifetimes, and
// zero steady-state heap allocations — is identical to Workspace; a
// DeltaWorkspace is likewise not safe for concurrent use.
type DeltaWorkspace struct {
	mode RecomputeMode

	// ws holds the phase-2 storage, phase-3 buffers and plan; its own
	// weight matrix stays unused.
	ws Workspace
	// Ping-ponged phase-1 weight matrices: w[cur] holds the weights of the
	// previous computation, the other buffer receives the new ones, and the
	// diff between them is the dirty set.
	w         [2]Matrix
	cur       int
	havePrev  bool
	prevAlive []bool

	// Repair scratch, sized once per dimension and reused (zero-alloc once
	// the change volume has been seen).
	dirtyMark []bool       // per vertex: incident edge changed
	dirty     []int        // ascending dirty vertex list
	changed   []edgeChange // changed edges, row-major order
	reshaped  bool         // some changed edge appeared or disappeared
	seen      []uint64     // per vertex: stamp of the last walk that reached it
	stamp     uint64
	stack     []int32 // subtree walk stack
	invalid   []int32 // invalidated vertices, current destination

	stats      DeltaStats
	fullPasses int // executed full passes, whatever the label
}

// edgeChange is one changed entry of the weight matrix.
type edgeChange struct {
	u, v      int32
	w         float64 // new weight (Inf for a removed edge)
	increased bool
}

// NewDeltaWorkspace returns an empty delta workspace in incremental mode.
// Buffers are sized lazily on the first ComputeInto and reused afterwards.
func NewDeltaWorkspace() *DeltaWorkspace { return &DeltaWorkspace{} }

// SetMode switches between incremental repair and the always-full baseline.
func (dw *DeltaWorkspace) SetMode(m RecomputeMode) { dw.mode = m }

// Stats returns the cumulative recompute labels.
func (dw *DeltaWorkspace) Stats() DeltaStats { return dw.stats }

// ComputeInto runs all three phases of the given algorithm on a system
// snapshot, reusing the workspace's buffers, with phase 2 repaired from the
// previous fixpoint when there is one. The contract is identical to the
// package function ComputeInto on a plain Workspace: destinations lists the
// duplicates of every module, prev is the previously downloaded tables (nil
// on the first computation), and when prev came from an earlier ComputeInto
// on the same workspace the new tables are written into the other internal
// buffer so prev stays intact.
func (dw *DeltaWorkspace) ComputeInto(alg Algorithm, state *SystemState, destinations map[app.ModuleID][]topology.NodeID, prev *Tables) *Plan {
	next := dw.cur ^ 1
	newW := &dw.w[next]
	alg.WeightsInto(newW, state)
	k := newW.Dim()
	livenessChanged := dw.syncAlive(state, k)
	if dw.mode == RecomputeFull || !dw.havePrev || dw.ws.sp.n != k {
		dw.ws.sp.ComputeFrom(newW)
		dw.fullPasses++
		dw.stats.Full++
	} else {
		dw.grow(k)
		dw.diffDirty(newW, &dw.w[dw.cur], k)
		// A node death or revival is labelled full outright; its weight
		// changes are repaired like any other.
		if !livenessChanged && dw.withinCrossovers(k) {
			dw.stats.Incremental++
		} else {
			dw.stats.Full++
		}
		dw.repair(newW, k)
	}
	dw.cur = next
	dw.havePrev = true
	return dw.ws.finish(alg, state, destinations, prev)
}

// syncAlive records the snapshot's liveness flags and reports whether any
// differs from the previous computation's.
func (dw *DeltaWorkspace) syncAlive(state *SystemState, k int) bool {
	changed := len(dw.prevAlive) != k
	if cap(dw.prevAlive) < k {
		dw.prevAlive = make([]bool, k)
	}
	dw.prevAlive = dw.prevAlive[:k]
	for i := range dw.prevAlive {
		alive := state.Alive(topology.NodeID(i))
		changed = changed || dw.prevAlive[i] != alive
		dw.prevAlive[i] = alive
	}
	return changed
}

// withinCrossovers reports whether the diff stays within both crossovers,
// and if so adds its volume to the stats. The affected pairs are counted on
// the previous trees and adjacency, with early bail-out, so this must run
// before the repair; it costs the size of the dirty subtrees.
func (dw *DeltaWorkspace) withinCrossovers(k int) bool {
	if float64(len(dw.dirty)) > dirtyCrossover*float64(k) {
		return false
	}
	budget := int(affectedCrossover * float64(k) * float64(k))
	total := 0
	for j := 0; j < k; j++ {
		total += dw.affectedSources(j)
		if total > budget {
			return false
		}
	}
	dw.stats.DirtyVertices += len(dw.dirty)
	dw.stats.AffectedPairs += total
	return true
}

// repair moves dist/succ from the previous fixpoint to that of the new
// weights newW, given the diff between them.
func (dw *DeltaWorkspace) repair(newW *Matrix, k int) {
	if len(dw.changed) == 0 {
		return // weights unchanged: dist/succ are already the fixpoint
	}
	if dw.reshaped {
		dw.ws.sp.g.build(newW)
	} else {
		dw.ws.sp.g.patch(dw.changed)
	}
	for j := 0; j < k; j++ {
		dw.repairDest(j)
	}
}

// grow sizes the repair scratch for dimension k.
func (dw *DeltaWorkspace) grow(k int) {
	if len(dw.seen) == k {
		return
	}
	dw.seen = make([]uint64, k)
	dw.stamp = 0
	dw.stack = make([]int32, 0, k)
	dw.invalid = make([]int32, 0, k)
	dw.dirty = make([]int, 0, k)
	dw.changed = make([]edgeChange, 0, 4*k) // a mesh has at most 4 out-arcs per vertex
}

// diffDirty compares the new and previous weight matrices, collects the
// changed edges and the dirty vertices — both endpoints of every changed
// edge — in ascending order, and records whether any edge appeared or
// disappeared.
func (dw *DeltaWorkspace) diffDirty(newW, oldW *Matrix, k int) {
	dw.dirtyMark = resized(dw.dirtyMark, k)
	dw.changed = dw.changed[:0]
	dw.reshaped = false
	for i := 0; i < k; i++ {
		a, b := newW.Row(i), oldW.Row(i)
		for j := 0; j < k; j++ {
			if a[j] != b[j] {
				dw.dirtyMark[i] = true
				dw.dirtyMark[j] = true
				dw.changed = append(dw.changed, edgeChange{int32(i), int32(j), a[j], a[j] > b[j]})
				dw.reshaped = dw.reshaped || a[j] == Inf || b[j] == Inf
			}
		}
	}
	dw.dirty = dw.dirty[:0]
	for i := 0; i < k; i++ {
		if dw.dirtyMark[i] {
			dw.dirty = append(dw.dirty, i)
		}
	}
}

// affectedSources returns how many sources i ≠ j had a previous canonical
// path to j that touches a dirty vertex, endpoints included: k-1 when j
// itself is dirty, otherwise the size of the union of the dirty vertices'
// subtrees in j's previous shortest-path tree. It reads the previous
// successors and the previous weights' adjacency, so it must run before the
// repair rebuilds either.
func (dw *DeltaWorkspace) affectedSources(j int) int {
	if dw.dirtyMark[j] {
		return dw.ws.sp.n - 1
	}
	dw.stamp++
	s := dw.stamp
	dw.invalid = dw.invalid[:0]
	for _, v := range dw.dirty {
		if dw.seen[v] != s {
			dw.walkSubtree(j, int32(v), s)
		}
	}
	return len(dw.invalid)
}

// walkSubtree marks root and every vertex below it in j's current
// shortest-path tree with stamp s and appends them to dw.invalid, skipping
// the vertices an earlier walk under s already reached. Tree children of x
// are its in-neighbours z with succ[z][j] == x.
func (dw *DeltaWorkspace) walkSubtree(j int, root int32, s uint64) {
	k, succ, g := dw.ws.sp.n, dw.ws.sp.succ, &dw.ws.sp.g
	dw.seen[root] = s
	dw.invalid = append(dw.invalid, root)
	stack := append(dw.stack[:0], root)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.in[g.inOff[x]:g.inOff[x+1]] {
			if z := a.v; dw.seen[z] != s && succ[int(z)*k+j] == topology.NodeID(x) {
				dw.seen[z] = s
				dw.invalid = append(dw.invalid, z)
				stack = append(stack, z)
			}
		}
	}
	dw.stack = stack
}

// repairDest restores destination j's column of dist/succ to the fixpoint of
// the new weights, given the changed edges and the column of the previous
// fixpoint; dw.ws.sp.g must already hold the new adjacency and sp.q must be
// empty. A destination no changed edge can move costs one scan of the
// changed edges.
func (dw *DeltaWorkspace) repairDest(j int) {
	sp := &dw.ws.sp
	k, dist, succ, g := sp.n, sp.dist.cells, sp.succ, &sp.g
	dw.stamp++
	s := dw.stamp
	// An increased (or removed) tree edge invalidates the subtree below it.
	dw.invalid = dw.invalid[:0]
	for _, e := range dw.changed {
		if u := int(e.u); e.increased && u != j && succ[u*k+j] == topology.NodeID(e.v) && dw.seen[u] != s {
			dw.walkSubtree(j, e.u, s)
		}
	}
	// Invalidated vertices lose their labels, then take the best route
	// through a still-valid out-neighbour as their starting upper bound.
	for _, z := range dw.invalid {
		dist[int(z)*k+j], succ[int(z)*k+j] = Inf, topology.Invalid
	}
	for _, z := range dw.invalid {
		at := int(z)*k + j
		for _, a := range g.out[g.outOff[z]:g.outOff[z+1]] {
			if dw.seen[a.v] == s {
				continue
			}
			if c := a.w + dist[int(a.v)*k+j]; c < dist[at] {
				dist[at], succ[at] = c, topology.NodeID(a.v)
			}
		}
		if dist[at] < Inf {
			sp.q.update(dist[at], z)
		}
	}
	// Decreased and new edges offer their tails a shorter (or equal,
	// lower-ID) route through a valid head.
	for _, e := range dw.changed {
		u, v := int(e.u), int(e.v)
		if e.increased || u == j || dw.seen[v] == s {
			continue
		}
		c := e.w + dist[v*k+j]
		if at := u*k + j; c < dist[at] {
			dist[at], succ[at] = c, topology.NodeID(v)
			sp.q.update(c, e.u)
		} else if c == dist[at] && c < Inf && topology.NodeID(v) < succ[at] {
			succ[at] = topology.NodeID(v)
		}
	}
	sp.settle(j)
}
