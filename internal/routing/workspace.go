package routing

import (
	"math"

	"repro/internal/app"
	"repro/internal/topology"
)

// Plan is the complete output of one controller routing computation: the
// phase-2 shortest paths and the phase-3 routing tables, tagged with the
// algorithm that produced them.
type Plan struct {
	Algorithm string
	Paths     *ShortestPaths
	Tables    *Tables
}

// Fingerprint returns a deterministic FNV-1a hash over the plan's complete
// routing state: every distance, every successor, and every phase-3 table
// entry. Two plans fingerprint equal iff their matrices and tables are
// byte-identical, so the incremental-vs-full equivalence checks (tests, the
// scaling experiment, the CI smoke) can compare whole plans in O(K²)
// without allocating.
func (p *Plan) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime
		}
	}
	sp := p.Paths
	mix(uint64(sp.n))
	for _, d := range sp.dist.cells {
		mix(math.Float64bits(d))
	}
	for _, s := range sp.succ {
		mix(uint64(int64(s)))
	}
	ts := p.Tables
	mix(uint64(ts.nodes))
	mix(uint64(ts.modules))
	for _, b := range ts.has {
		mix(boolBit(b))
	}
	for _, b := range ts.known {
		mix(boolBit(b))
	}
	for _, r := range ts.routes {
		mix(uint64(int64(r.Dest)))
		mix(uint64(int64(r.NextHop)))
		mix(math.Float64bits(r.Distance))
	}
	for _, n := range ts.nextHop {
		mix(uint64(int64(n)))
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Workspace owns every buffer the three routing phases need — the phase-1
// weight matrix, the phase-2 distance/successor storage, the dense duplicate
// lists and two phase-3 table buffers — so that repeated ComputeInto calls
// reuse them and steady-state recomputation performs no heap allocations.
//
// The two table buffers are ping-ponged: each ComputeInto writes into the
// buffer that is not the caller's prev, so the controller can keep the
// previous frame's tables (needed for deadlock avoidance, and by nodes still
// forwarding on them) while the next generation is being built. Lifetimes: a
// returned Plan and its Paths are recomputed in place by the NEXT ComputeInto
// on the same workspace; only the Plan's Tables live on — for exactly one
// more call, provided they are passed back as prev (a Tables not handed back
// as prev may be overwritten immediately).
//
// A Workspace is not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	w     Matrix
	sp    ShortestPaths
	dests destSet
	tbl   [2]Tables
	plan  Plan
}

// NewWorkspace returns an empty workspace. Buffers are sized lazily on the
// first ComputeInto and reused afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// ComputeInto runs all three phases of the given algorithm on a system
// snapshot, reusing the workspace's buffers. destinations lists the
// duplicates of every module (S_i); prev is the previously downloaded tables
// (nil on the first computation) consulted for deadlock avoidance. When prev
// came from an earlier ComputeInto on the same workspace the new tables are
// written into the other internal buffer, so prev stays intact.
func ComputeInto(ws *Workspace, alg Algorithm, state *SystemState, destinations map[app.ModuleID][]topology.NodeID, prev *Tables) *Plan {
	alg.WeightsInto(&ws.w, state)
	ws.sp.ComputeFrom(&ws.w)
	return ws.finish(alg, state, destinations, prev)
}

// finish runs phase 3 on the workspace's shortest paths, writing the tables
// into the buffer that is not prev, and returns the assembled plan.
func (ws *Workspace) finish(alg Algorithm, state *SystemState, destinations map[app.ModuleID][]topology.NodeID, prev *Tables) *Plan {
	ws.dests.fill(destinations)
	out := &ws.tbl[0]
	if prev == out {
		out = &ws.tbl[1]
	}
	buildTablesInto(out, state, &ws.sp, &ws.dests, prev)
	ws.plan = Plan{Algorithm: alg.Name(), Paths: &ws.sp, Tables: out}
	return &ws.plan
}
