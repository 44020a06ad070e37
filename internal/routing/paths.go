package routing

import (
	"fmt"

	"repro/internal/topology"
)

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
// architecture").
type ShortestPaths struct {
	n    int
	dist Matrix
	succ []topology.NodeID // row-major, n*n

	// Phase-2 scratch, reused across computations.
	g adjacency
	q minHeap
}

// AllPairs computes shortest distances and successors for every ordered
// node pair of the weight matrix W. Hot paths should reuse a ShortestPaths
// via ComputeFrom instead.
func AllPairs(w Matrix) *ShortestPaths {
	sp := &ShortestPaths{}
	sp.ComputeFrom(&w)
	return sp
}

// ComputeFrom recomputes the all-pairs shortest paths for the weight matrix
// W, reusing the receiver's backing storage: one Dijkstra pass per
// destination over the reverse adjacency of W's finite off-diagonal
// entries. W is not modified.
func (sp *ShortestPaths) ComputeFrom(w *Matrix) {
	k := w.Dim()
	sp.n = k
	sp.g.build(w)
	sp.dist.Reset(k)
	if cap(sp.succ) < k*k {
		sp.succ = make([]topology.NodeID, k*k)
	}
	sp.succ = sp.succ[:k*k]
	for i := range sp.succ {
		sp.succ[i] = topology.Invalid
	}
	for j := 0; j < k; j++ {
		sp.succ[j*k+j] = topology.NodeID(j)
		sp.q = append(sp.q[:0], heapItem{0, int32(j)})
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
	for len(sp.q) > 0 {
		it := sp.q.pop()
		x := int(it.v)
		if it.key != dist[x*k+j] {
			continue // stale: x was relabelled after this push
		}
		for _, a := range g.in[g.inOff[x]:g.inOff[x+1]] {
			z := int(a.v)
			if z == j {
				continue
			}
			c := a.w + it.key
			if at := z*k + j; c < dist[at] {
				dist[at], succ[at] = c, topology.NodeID(x)
				sp.q.push(c, a.v)
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

// heapItem is a queued label: the tentative distance inline with its vertex.
type heapItem struct {
	key float64
	v   int32
}

// minHeap is a binary min-heap on key with lazy deletion: a relabelled
// vertex is pushed again and its stale entries are skipped when popped.
type minHeap []heapItem

func (h *minHeap) push(key float64, v int32) {
	q := append(*h, heapItem{key, v})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].key <= key {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = heapItem{key, v}
	*h = q
}

func (h *minHeap) pop() heapItem {
	q := *h
	top := q[0]
	last := q[len(q)-1]
	q = q[:len(q)-1]
	n := len(q)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].key < q[c].key {
			c++
		}
		if last.key <= q[c].key {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
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

// Reachable reports whether dst is reachable from src.
func (sp *ShortestPaths) Reachable(src, dst topology.NodeID) bool {
	return sp.Dist(src, dst) < Inf
}

// inRange reports whether both endpoints index valid nodes.
func (sp *ShortestPaths) inRange(src, dst topology.NodeID) bool {
	return int(src) >= 0 && int(src) < sp.n && int(dst) >= 0 && int(dst) < sp.n
}

// Path reconstructs the node sequence of a shortest path from src to dst
// (inclusive of both endpoints) by following successors. It returns an error
// if dst is unreachable or a successor loop is detected (which would indicate
// a corrupted matrix).
func (sp *ShortestPaths) Path(src, dst topology.NodeID) ([]topology.NodeID, error) {
	if !sp.inRange(src, dst) {
		return nil, fmt.Errorf("routing: path endpoints %d -> %d out of range", src, dst)
	}
	if !sp.Reachable(src, dst) {
		return nil, fmt.Errorf("routing: node %d unreachable from %d", dst, src)
	}
	path := []topology.NodeID{src}
	cur := src
	for cur != dst {
		next := sp.Succ(cur, dst)
		if next == topology.Invalid {
			return nil, fmt.Errorf("routing: missing successor from %d towards %d", cur, dst)
		}
		path = append(path, next)
		cur = next
		if len(path) > sp.n {
			return nil, fmt.Errorf("routing: successor loop detected between %d and %d", src, dst)
		}
	}
	return path, nil
}

// HopCount returns the number of hops on the shortest path from src to dst,
// or -1 if unreachable. It walks the successor matrix directly and performs
// no allocation.
func (sp *ShortestPaths) HopCount(src, dst topology.NodeID) int {
	if !sp.inRange(src, dst) || !sp.Reachable(src, dst) {
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
