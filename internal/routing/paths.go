package routing

import "repro/internal/topology"

// ShortestPaths is the result of phase 2: the all-pairs distance matrix D and
// the successor matrix S, both stored flat for cache locality. Succ(i, j) is
// the next hop on a shortest path from i to j, or topology.Invalid when j is
// unreachable from i.
//
// The result is the canonical fixpoint of the weight matrix W: for every
// destination j, D(j, j) = 0 and D(u, j) = min over out-neighbours x of
// fl(W(u, x) + D(x, j)), and S(u, j) is the lowest-ID x attaining that
// minimum. The fixpoint is unique unless rounding absorbs an edge weight
// (fl(w + d) == d), and with exact weight sums it is also what the
// Floyd–Warshall variant of Fig 5 computes (see DESIGN.md, "Performance
// architecture"). Both ComputeFrom and the DeltaWorkspace repair keep
// S(u, j) == topology.Invalid exactly when D(u, j) == Inf, which lets phase 3
// copy successor rows wholesale.
type ShortestPaths struct {
	n    int
	dist Matrix
	succ []topology.NodeID // row-major, n*n

	// Phase-2 scratch, reused across computations.
	g adjacency
	q indexedHeap
}

// ComputeFrom recomputes the all-pairs shortest paths for the weight matrix
// W, reusing the receiver's backing storage: one Dijkstra pass per
// destination over the reverse adjacency of W's finite off-diagonal
// entries. W is not modified.
func (sp *ShortestPaths) ComputeFrom(w *Matrix) {
	k := w.Dim()
	sp.n = k
	sp.g.build(w)
	sp.q.reset(k)
	sp.dist.Reset(k)
	sp.succ = sized(sp.succ, k*k)
	fill(sp.succ, topology.Invalid)
	for j := 0; j < k; j++ {
		sp.succ[j*k+j] = topology.NodeID(j)
		sp.q.update(0, int32(j))
		sp.settle(j)
	}
}

// settle runs Dijkstra towards destination j from the queued labels: each
// popped vertex x relaxes its in-neighbours z through the arc z→x. A strictly
// shorter label replaces z's distance and successor; an equal one moves the
// successor to x when x has the lower ID. Column j of dist/succ holds the
// labels, so a caller may seed it with any upper bounds it can vouch for.
func (sp *ShortestPaths) settle(j int) {
	k := sp.n
	dist, succ, g := sp.dist.cells, sp.succ, &sp.g
	for len(sp.q.items) > 0 {
		it := sp.q.pop()
		x := int(it.v)
		for _, a := range g.in[g.inOff[x]:g.inOff[x+1]] {
			z := int(a.v)
			if z == j {
				continue
			}
			c := a.w + it.key
			if at := z*k + j; c < dist[at] {
				dist[at], succ[at] = c, topology.NodeID(x)
				sp.q.update(c, a.v)
			} else if c == dist[at] && topology.NodeID(x) < succ[at] {
				succ[at] = topology.NodeID(x)
			}
		}
	}
}

// arc is one adjacency entry: the neighbour and the weight of the edge
// between it and the list's owner, stored together for locality.
type arc struct {
	v int32
	w float64
}

// adjacency is W's finite off-diagonal entries in compressed sparse row
// form: in[inOff[x]:inOff[x+1]] are the arcs z→x into x, out[outOff[u]:
// outOff[u+1]] the arcs u→x out of u, each list in ascending neighbour order.
type adjacency struct {
	inOff, outOff []int32
	in, out       []arc
}

// build fills the adjacency from W in two passes over the matrix (count,
// then fill). The arc arrays regrow only when the edge count exceeds their
// capacity, so a fixed topology stays allocation-free.
func (g *adjacency) build(w *Matrix) {
	k := w.Dim()
	g.inOff = resized(g.inOff, k+1)
	g.outOff = resized(g.outOff, k+1)
	for u := 0; u < k; u++ {
		row := w.Row(u)
		for x, wx := range row {
			if x != u && wx < Inf {
				g.outOff[u+1]++
				g.inOff[x+1]++
			}
		}
	}
	for x := 0; x < k; x++ {
		g.inOff[x+1] += g.inOff[x]
		g.outOff[x+1] += g.outOff[x]
	}
	edges := int(g.outOff[k])
	if cap(g.in) < edges {
		g.in = make([]arc, edges)
		g.out = make([]arc, edges)
	}
	g.in, g.out = g.in[:edges], g.out[:edges]
	// Filling in ascending source order keeps every list sorted; inOff[x]
	// serves as x's fill cursor and is shifted back afterwards.
	n := 0
	for u := 0; u < k; u++ {
		row := w.Row(u)
		for x, wx := range row {
			if x != u && wx < Inf {
				g.out[n] = arc{int32(x), wx}
				n++
				g.in[g.inOff[x]] = arc{int32(u), wx}
				g.inOff[x]++
			}
		}
	}
	copy(g.inOff[1:], g.inOff[:k])
	g.inOff[0] = 0
}

// patch rewrites, in place, the in- and out-arc weights of edges whose
// weight moved between two finite values. Such a change keeps the arc set,
// so the offsets and list order stay exactly what build would produce.
func (g *adjacency) patch(changed []edgeChange) {
	for _, e := range changed {
		setArc(g.out[g.outOff[e.u]:g.outOff[e.u+1]], e.v, e.w)
		setArc(g.in[g.inOff[e.v]:g.inOff[e.v+1]], e.u, e.w)
	}
}

// setArc sets the weight of the arc to v in list.
func setArc(list []arc, v int32, w float64) {
	for i := range list {
		if list[i].v == v {
			list[i].w = w
			return
		}
	}
}

// heapItem is a queued label: the tentative distance inline with its vertex.
type heapItem struct {
	key float64
	v   int32
}

// indexedHeap is a binary min-heap of vertices on their tentative distance,
// with decrease-key: pos[v] is v's slot in items, or -1 while v is not
// queued, so each vertex is queued at most once and every pop is live.
// Popping leaves pos all -1 once the heap drains, so one reset per
// dimension suffices.
type indexedHeap struct {
	items []heapItem
	pos   []int32
}

// reset empties the heap for vertices 0..k-1.
func (h *indexedHeap) reset(k int) {
	h.items = h.items[:0]
	h.pos = sized(h.pos, k)
	fill(h.pos, -1)
}

// update queues v under key, or lowers v's key if it is already queued; key
// must not exceed the queued one.
func (h *indexedHeap) update(key float64, v int32) {
	i := int(h.pos[v])
	if i < 0 {
		i = len(h.items)
		h.items = append(h.items, heapItem{})
	}
	q := h.items
	for i > 0 {
		p := (i - 1) / 2
		if q[p].key <= key {
			break
		}
		q[i] = q[p]
		h.pos[q[i].v] = int32(i)
		i = p
	}
	q[i] = heapItem{key, v}
	h.pos[v] = int32(i)
}

// pop removes and returns the item with the smallest key.
func (h *indexedHeap) pop() heapItem {
	q := h.items
	top, last := q[0], q[len(q)-1]
	h.pos[top.v] = -1
	q = q[:len(q)-1]
	h.items = q
	if len(q) == 0 {
		return top
	}
	i, n := 0, len(q)
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].key < q[c].key {
			c++
		}
		if last.key <= q[c].key {
			break
		}
		q[i] = q[c]
		h.pos[q[i].v] = int32(i)
		i = c
	}
	q[i] = last
	h.pos[last.v] = int32(i)
	return top
}

// Dim returns the number of nodes the paths were computed over.
func (sp *ShortestPaths) Dim() int { return sp.n }

// Dist returns the shortest weighted distance from src to dst (Inf when
// unreachable).
func (sp *ShortestPaths) Dist(src, dst topology.NodeID) float64 {
	return sp.dist.At(int(src), int(dst))
}

// Succ returns the next hop on a shortest path from src to dst, or
// topology.Invalid when dst is unreachable from src.
func (sp *ShortestPaths) Succ(src, dst topology.NodeID) topology.NodeID {
	return sp.succ[int(src)*sp.n+int(dst)]
}

// HopCount returns the number of hops on the shortest path from src to dst,
// or -1 if unreachable. It walks the successor matrix directly and performs
// no allocation; an unreachable pair stops at its Invalid successor.
func (sp *ShortestPaths) HopCount(src, dst topology.NodeID) int {
	if int(src) < 0 || int(src) >= sp.n || int(dst) < 0 || int(dst) >= sp.n {
		return -1
	}
	hops := 0
	for cur := src; cur != dst; hops++ {
		next := sp.Succ(cur, dst)
		if next == topology.Invalid || hops >= sp.n {
			return -1
		}
		cur = next
	}
	return hops
}
