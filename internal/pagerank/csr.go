package pagerank

import "sync"

// CSR is a profile graph in compressed-sparse-row form: the successors
// of node i are Edges[Offsets[i]:Offsets[i+1]]. It is the native
// layout of the iteration cores — one contiguous offsets arena and one
// contiguous edge arena, no per-node slice headers to chase — and
// matches the arenas lattice.Space exposes.
type CSR struct {
	Offsets []int32 // len n+1, non-decreasing
	Edges   []int32
}

// NewCSR flattens per-node successor lists into CSR form.
func NewCSR(succ [][]int32) CSR {
	off := make([]int32, len(succ)+1)
	total := 0
	for i, out := range succ {
		total += len(out)
		off[i+1] = int32(total)
	}
	edges := make([]int32, 0, total)
	for _, out := range succ {
		edges = append(edges, out...)
	}
	return CSR{Offsets: off, Edges: edges}
}

// Len returns the number of nodes.
func (g CSR) Len() int {
	if len(g.Offsets) == 0 {
		return 0
	}
	return len(g.Offsets) - 1
}

// NumEdges returns the number of edges.
func (g CSR) NumEdges() int { return len(g.Edges) }

// Succ returns the successors of node i. The slice aliases the arena.
func (g CSR) Succ(i int) []int32 { return g.Edges[g.Offsets[i]:g.Offsets[i+1]] }

// Reverse returns the graph with every edge flipped, built by a
// counting pass. The reversed adjacency of a target node lists its
// sources in ascending order, matching the append order of a serial
// per-node reversal, so downstream float accumulation is reproducible.
func (g CSR) Reverse() CSR {
	n := g.Len()
	off := make([]int32, n+1)
	for _, j := range g.Edges {
		off[j+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	edges := make([]int32, len(g.Edges))
	cursor := make([]int32, n)
	for i := 0; i < n; i++ {
		for _, j := range g.Edges[g.Offsets[i]:g.Offsets[i+1]] {
			edges[off[j]+cursor[j]] = int32(i)
			cursor[j]++
		}
	}
	return CSR{Offsets: off, Edges: edges}
}

// Scratch-vector pool. The iteration cores allocate only their
// returned result; internal accumulators come from this pool so the
// Factored ranker's many per-group runs (and repeated re-ranks of a
// live system) reach a steady state with no per-run scratch
// allocations. Pooled slices are zeroed on grab.
var f64Pool sync.Pool // *[]float64

func grabF64(n int) []float64 {
	if p, ok := f64Pool.Get().(*[]float64); ok && cap(*p) >= n {
		s := (*p)[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]float64, n)
}

func releaseF64(s []float64) {
	if cap(s) > 0 {
		f64Pool.Put(&s)
	}
}
