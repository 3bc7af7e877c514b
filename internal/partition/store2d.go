package partition

import (
	"repro/internal/graph"
	"repro/internal/localindex"
)

// Store2D is one rank's storage under the 2D partitioning (§2.2, §2.4).
// Rank (i, j) stores, for each vertex v in its block column j, the
// partial edge list {u : (u,v) in E, block(u) mod R == i}. Only
// non-empty partial lists are indexed (§2.4.1): ColMap compacts the
// O(n/P) expected non-empty columns, RowMap compacts the O(n/P)
// distinct vertices appearing in any local list. These are the second
// and third global→local mappings of §2.4.2 (the first — owned
// vertices — is plain block arithmetic).
//
// On a 1×P layout (R = 1, the column-wise 1D partitioning of §2.1) a
// rank's block column is exactly its owned block and every partial
// list is a full edge list, so the store is dense: Off is indexed by
// owned local index, and ColMap, ColIds and RowNeed stay nil.
type Store2D struct {
	Layout *Layout2D
	Rank   int
	I, J   int          // mesh coordinates
	Lo, Hi graph.Vertex // owned vertex range

	// Partial edge lists in CSR over compacted non-empty columns (over
	// owned local indices when Dense).
	ColMap *localindex.Map // global v -> compact column index
	ColIds []graph.Vertex  // compact column index -> global v (ColMap inverse)
	Off    []int64
	Rows   []graph.Vertex // global u ids
	// RowWts, when non-nil, carries the edge weight parallel to each
	// Rows entry (weight-aware builds only).
	RowWts []uint32

	// RowMap indexes every distinct u appearing in Rows, backing the
	// sent-neighbors bitset (§2.4.3).
	RowMap   *localindex.Map
	RowCount int

	// RowNeed marks, for each owned vertex (by local index), which mesh
	// rows i' hold a non-empty partial edge list for it. The targeted
	// expand sends a frontier vertex only to those rows. Packed
	// ceil(R/64) words per vertex.
	RowNeed    []uint64
	rowNeedWpv int // words per vertex
}

// Dense reports whether the partial lists are indexed by owned local
// index: the R = 1 layout, whose processor columns have one member.
func (s *Store2D) Dense() bool { return s.ColMap == nil }

// OwnedCount returns the number of owned vertices.
func (s *Store2D) OwnedCount() int { return int(s.Hi - s.Lo) }

// LocalOf converts a global owned vertex id to its local index.
func (s *Store2D) LocalOf(v graph.Vertex) uint32 { return uint32(v - s.Lo) }

// GlobalOf converts a local owned index to the global vertex id.
func (s *Store2D) GlobalOf(i uint32) graph.Vertex { return s.Lo + graph.Vertex(i) }

// Column returns the partial-list index of global vertex v, whether
// this rank stores a list for it, and the hash probes the lookup took
// (none on a dense store). The map's probe counter is left alone; the
// caller credits the probes through AddProbes.
func (s *Store2D) Column(v graph.Vertex) (ci uint32, ok bool, probes int) {
	if s.ColMap == nil {
		return uint32(v - s.Lo), v >= s.Lo && v < s.Hi, 0
	}
	return s.ColMap.GetCounted(v)
}

// Columns returns the number of indexed partial lists.
func (s *Store2D) Columns() int { return len(s.Off) - 1 }

// Probes returns the hash probes the store's maps have performed.
func (s *Store2D) Probes() uint64 {
	p := s.RowMap.Probes()
	if s.ColMap != nil {
		p += s.ColMap.Probes()
	}
	return p
}

// AddProbes credits n hash probes counted through Column or
// localindex.Map.GetCounted to the store.
func (s *Store2D) AddProbes(n uint64) { s.RowMap.AddProbes(n) }

// PartialList returns the partial edge list stored on this rank for
// global vertex v, or nil if empty. The probe cost is visible through
// Probes for the cost model.
func (s *Store2D) PartialList(v graph.Vertex) []graph.Vertex {
	ci, ok, p := s.Column(v)
	s.AddProbes(uint64(p))
	if !ok {
		return nil
	}
	return s.Rows[s.Off[ci]:s.Off[ci+1]]
}

// PartialWeights returns the weights parallel to PartialList(v), or
// nil when the store is unweighted or holds no list for v.
func (s *Store2D) PartialWeights(v graph.Vertex) []uint32 {
	if s.RowWts == nil {
		return nil
	}
	ci, ok, p := s.Column(v)
	s.AddProbes(uint64(p))
	if !ok {
		return nil
	}
	return s.RowWts[s.Off[ci]:s.Off[ci+1]]
}

// NeedsRow reports whether mesh row i has a non-empty partial edge list
// for owned vertex with local index li.
func (s *Store2D) NeedsRow(li uint32, i int) bool {
	if s.RowNeed == nil {
		return i == 0 && s.Off[li+1] > s.Off[li]
	}
	w := int(li)*s.rowNeedWpv + i/64
	return s.RowNeed[w]&(1<<(i%64)) != 0
}

func (s *Store2D) setNeedsRow(li uint32, i int) {
	w := int(li)*s.rowNeedWpv + i/64
	s.RowNeed[w] |= 1 << (i % 64)
}

// NonEmptyColumns returns the number of non-empty partial edge lists on
// this rank (the paper's O(n/P) bound, §2.4.1).
func (s *Store2D) NonEmptyColumns() int {
	if s.ColMap != nil {
		return s.ColMap.Len()
	}
	n := 0
	for ci := 0; ci < s.Columns(); ci++ {
		if s.Off[ci+1] > s.Off[ci] {
			n++
		}
	}
	return n
}

// MemoryStats summarizes one rank's storage footprint, the quantities
// §2.4.1 argues stay O(n/P): owned vertices, indexed non-empty columns,
// distinct row vertices, and raw edge entries. DenseColumns counts the
// vertices of the rank's block column (about n/C), the columns a naive
// (index-everything) layout would pay for.
type MemoryStats struct {
	OwnedVertices   int
	NonEmptyColumns int
	DistinctRows    int
	EdgeEntries     int
	DenseColumns    int
}

// Memory returns this rank's MemoryStats.
func (s *Store2D) Memory() MemoryStats {
	// My block column holds blocks J*R .. J*R+R-1, clipped at N.
	l := s.Layout
	lo, _ := l.OwnedRange(l.RankAt(0, s.J))
	_, hi := l.OwnedRange(l.RankAt(l.R-1, s.J))
	return MemoryStats{
		OwnedVertices:   s.OwnedCount(),
		NonEmptyColumns: s.NonEmptyColumns(),
		DistinctRows:    s.RowCount,
		EdgeEntries:     len(s.Rows),
		DenseColumns:    int(hi - lo),
	}
}

// WeightedVisitor streams every undirected edge exactly once with its
// weight, such as graph.CSR.VisitWeightedEdges or a WeightSpec overlay
// on graph.Params.VisitEdges.
type WeightedVisitor func(func(u, v graph.Vertex, w uint32)) error

// liftUnweighted adapts an unweighted edge source to the weighted
// visitor shape (weight 1 everywhere).
func liftUnweighted(visitEdges func(func(u, v graph.Vertex)) error) WeightedVisitor {
	return func(fn func(u, v graph.Vertex, w uint32)) error {
		return visitEdges(func(u, v graph.Vertex) { fn(u, v, 1) })
	}
}

// Build2D constructs all per-rank 2D stores by streaming the edge
// source twice (count, then fill). The edge source is any function that
// visits every undirected edge exactly once, such as
// graph.Params.VisitEdges or a closure over a materialized CSR.
//
// This centralized loader stands in for the parallel file I/O of the
// original system; graph distribution is not part of any measured
// experiment.
func Build2D(l *Layout2D, visitEdges func(func(u, v graph.Vertex)) error) ([]*Store2D, error) {
	return build2D(l, liftUnweighted(visitEdges), false)
}

// Build2DWeighted is Build2D with per-edge weights: every partial edge
// list entry carries its weight in RowWts, parallel to Rows.
func Build2DWeighted(l *Layout2D, visit WeightedVisitor) ([]*Store2D, error) {
	return build2D(l, visit, true)
}

func build2D(l *Layout2D, visit WeightedVisitor, weighted bool) ([]*Store2D, error) {
	if l.R == 1 {
		return buildDense(l, visit, weighted)
	}
	p := l.P()
	stores := make([]*Store2D, p)
	wpv := (l.R + 63) / 64
	for r := 0; r < p; r++ {
		i, j := l.MeshOf(r)
		lo, hi := l.OwnedRange(r)
		st := &Store2D{
			Layout: l, Rank: r, I: i, J: j, Lo: lo, Hi: hi,
			ColMap:     localindex.NewMap(16),
			RowMap:     localindex.NewMap(16),
			rowNeedWpv: wpv,
		}
		st.RowNeed = make([]uint64, st.OwnedCount()*wpv)
		stores[r] = st
	}
	// Pass 1: discover non-empty columns, count entries, build RowMap
	// and RowNeed.
	counts := make([][]int64, p)
	entry := func(u, v graph.Vertex) {
		// u appears in the edge list (matrix column) of v.
		rk := l.StoringRank(u, v)
		st := stores[rk]
		ci := st.ColMap.GetOrPut(v, func() uint32 {
			counts[rk] = append(counts[rk], 0)
			st.ColIds = append(st.ColIds, v)
			return uint32(len(counts[rk]) - 1)
		})
		counts[rk][ci]++
		st.RowMap.GetOrPut(u, func() uint32 {
			st.RowCount++
			return uint32(st.RowCount - 1)
		})
		// Tell v's owner that mesh row RowIndexOf(u) has a non-empty
		// partial list for v.
		owner := stores[l.OwnerRank(v)]
		owner.setNeedsRow(owner.LocalOf(v), l.RowIndexOf(u))
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		entry(u, v)
		entry(v, u)
	}); err != nil {
		return nil, err
	}
	fills := make([][]int64, p)
	for r, st := range stores {
		st.Off = make([]int64, len(counts[r])+1)
		for i, c := range counts[r] {
			st.Off[i+1] = st.Off[i] + c
		}
		st.Rows = make([]graph.Vertex, st.Off[len(st.Off)-1])
		if weighted {
			st.RowWts = make([]uint32, len(st.Rows))
		}
		fills[r] = make([]int64, len(counts[r]))
	}
	// Pass 2: fill rows (and their weights when carried).
	place := func(u, v graph.Vertex, w uint32) {
		rk := l.StoringRank(u, v)
		st := stores[rk]
		ci, _ := st.ColMap.Get(v)
		st.Rows[st.Off[ci]+fills[rk][ci]] = u
		if weighted {
			st.RowWts[st.Off[ci]+fills[rk][ci]] = w
		}
		fills[rk][ci]++
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		place(u, v, w)
		place(v, u, w)
	}); err != nil {
		return nil, err
	}
	return stores, nil
}

// buildDense builds the stores of a 1×P layout, where a rank's block
// column is its owned block: every rank holds the full edge lists of
// its owned vertices, indexed by owned local index, and RowMap numbers
// the distinct targets in edge-list order.
func buildDense(l *Layout2D, visit WeightedVisitor, weighted bool) ([]*Store2D, error) {
	stores := make([]*Store2D, l.P())
	for r := range stores {
		lo, hi := l.OwnedRange(r)
		st := &Store2D{Layout: l, Rank: r, J: r, Lo: lo, Hi: hi}
		st.Off = make([]int64, st.OwnedCount()+1)
		stores[r] = st
	}
	// With R = 1, block b is owned by rank b.
	count := func(v graph.Vertex) {
		st := stores[l.BlockOf(v)]
		st.Off[st.LocalOf(v)+1]++
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		count(u)
		count(v)
	}); err != nil {
		return nil, err
	}
	fills := make([][]int64, len(stores))
	for r, st := range stores {
		for i := 1; i < len(st.Off); i++ {
			st.Off[i] += st.Off[i-1]
		}
		st.Rows = make([]graph.Vertex, st.Off[len(st.Off)-1])
		if weighted {
			st.RowWts = make([]uint32, len(st.Rows))
		}
		fills[r] = make([]int64, st.OwnedCount())
	}
	place := func(v, target graph.Vertex, w uint32) {
		r := l.BlockOf(v)
		st := stores[r]
		li := st.LocalOf(v)
		at := st.Off[li] + fills[r][li]
		st.Rows[at] = target
		if weighted {
			st.RowWts[at] = w
		}
		fills[r][li]++
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		place(u, v, w)
		place(v, u, w)
	}); err != nil {
		return nil, err
	}
	for _, st := range stores {
		st.RowMap = localindex.NewMap(len(st.Rows))
		next := func() uint32 { st.RowCount++; return uint32(st.RowCount - 1) }
		for _, u := range st.Rows {
			st.RowMap.GetOrPut(u, next)
		}
	}
	return stores, nil
}
