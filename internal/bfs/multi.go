package bfs

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/search"
	"repro/internal/torus"
)

// Batched multi-source BFS: up to MaxLanes sources traverse the graph
// in one level-synchronized sweep sequence, one bit-lane per source
// (the Ligra-style cluster-BFS shape). Every owned vertex carries a
// lane mask of the sources that have reached it; a sweep expands the
// lane-OR frontier — the set of vertices some lane newly reached —
// exactly like a top-down BFS level, except each travelling vertex
// carries its frontier lane mask and owners label per lane.
//
// The vertex sets ride the same wire codecs as single-source payloads
// (the lane-OR frontier is what gets list/bitmap/hybrid-encoded); the
// masks follow in decoded set order, as interleaved words or
// transposed lane planes — whichever is fewer words (see the wire
// format below). Because the b searches share one set payload per hop,
// a batch moves fewer words than b independent runs whose frontiers
// overlap.

// MaxLanes is the lane capacity of one multi-source batch: one bit per
// source in a uint64 lane mask.
const MaxLanes = 64

// MultiResult reports a finished batched multi-source BFS. The
// embedded Result carries the shared machinery's statistics — PerLevel
// is per sweep, and Levels[v] is the distance from the *nearest*
// source (the lane minimum) — while LaneLevels separates the b
// independent per-source level arrays.
type MultiResult struct {
	Result
	// B is the lane count (number of sources in the batch).
	B int
	// Sources records the batch, lane i searching from Sources[i].
	Sources []graph.Vertex
	// LaneLevels[i][v] is source i's BFS level of vertex v (Unreached
	// if lane i never labels it) — identical to an independent BFS from
	// Sources[i].
	LaneLevels [][]int32
}

// laneOf returns the index of source s in the batch, or -1.
func (r *MultiResult) laneOf(s graph.Vertex) int {
	for i, src := range r.Sources {
		if src == s {
			return i
		}
	}
	return -1
}

// LaneDistance returns the s→t distance of the lane searching from s
// (Unreached if t was not reached or s is not in the batch).
func (r *MultiResult) LaneDistance(s, t graph.Vertex) int32 {
	if i := r.laneOf(s); i >= 0 {
		return r.LaneLevels[i][t]
	}
	return graph.Unreached
}

// Lane payload wire format, the multi-source counterpart of the SSSP
// relax-request format:
//
//	[setWords, maskForm, encodedSet..., masks...]
//
// The vertex set is ascending and duplicate-free (senders OR-merge the
// masks of duplicate vertices first), so it compresses under every
// frontier wire mode; the lane masks follow in decoded set order in
// whichever of two self-described layouts is fewer words for this
// (batch size, set size) pair:
//
//   - interleaved: ceil(b/32) words per member, member-major — cheap
//     when the set is small relative to the lane count;
//   - planes: b transposed bitmaps of ceil(|set|/32) words, bit p of
//     lane l's plane marking member p — cheap for wide sets of narrow
//     batches (b=8 lanes cost 1/4 word per member instead of 1).
//
// An empty batch is a nil payload. The lane count b is engine state
// (every rank knows the source batch), not payload data.
const (
	laneFormInterleaved = iota
	laneFormPlanes
)

// maskWords returns the interleaved per-member mask width for b lanes.
func maskWords(b int) int { return (b + 31) / 32 }

// encodeLanes packs a deduplicated (vertex, mask) batch of a b-lane
// search drawn from the destination's owned universe [lo, lo+n).
func encodeLanes(p *pool.Pool, vs []uint32, ms []uint64, b int, lo uint32, n int, mode frontier.WireMode, h *frontier.ContainerHist) []uint32 {
	if len(vs) == 0 {
		return nil
	}
	enc := frontier.EncodeSetStatsPar(p, vs, lo, n, mode, h)
	s := len(vs)
	wInter := s * maskWords(b)
	wPlane := b * frontier.BitWords(s)
	out := make([]uint32, 0, 2+len(enc)+min(wInter, wPlane))
	out = append(out, uint32(len(enc)))
	if wInter <= wPlane {
		out = append(out, laneFormInterleaved)
		out = append(out, enc...)
		for _, m := range ms {
			out = append(out, uint32(m))
			if b > 32 {
				out = append(out, uint32(m>>32))
			}
		}
		return out
	}
	out = append(out, laneFormPlanes)
	out = append(out, enc...)
	planes := make([]uint32, wPlane)
	pw := frontier.BitWords(s)
	for p, m := range ms {
		for mm := m; mm != 0; mm &= mm - 1 {
			lane := bits.TrailingZeros64(mm)
			planes[lane*pw+p/32] |= 1 << (p % 32)
		}
	}
	return append(out, planes...)
}

// decodeLanes inverts encodeLanes for a b-lane search.
func decodeLanes(p *pool.Pool, buf []uint32, b int) (vs []uint32, ms []uint64) {
	if len(buf) == 0 {
		return nil, nil
	}
	if len(buf) < 2 {
		panic("bfs: truncated lane payload")
	}
	nw := int(buf[0])
	form := buf[1]
	if 2+nw > len(buf) {
		panic("bfs: truncated lane payload set")
	}
	vs = frontier.DecodePar(p, buf[2:2+nw])
	rest := buf[2+nw:]
	s := len(vs)
	ms = make([]uint64, s)
	switch form {
	case laneFormInterleaved:
		w := maskWords(b)
		if len(rest) != s*w {
			panic("bfs: lane payload set/mask length mismatch")
		}
		for i := range ms {
			ms[i] = uint64(rest[i*w])
			if w > 1 {
				ms[i] |= uint64(rest[i*w+1]) << 32
			}
		}
	case laneFormPlanes:
		pw := frontier.BitWords(s)
		if len(rest) != b*pw {
			panic("bfs: lane payload plane length mismatch")
		}
		for lane := 0; lane < b; lane++ {
			plane := rest[lane*pw : (lane+1)*pw]
			frontier.IterateBits(plane, func(p uint32) { ms[p] |= 1 << uint(lane) })
		}
	default:
		panic("bfs: unknown lane mask form")
	}
	return vs, ms
}

// lanePairs sorts parallel (vertex, mask) slices by vertex.
type lanePairs struct {
	vs []uint32
	ms []uint64
}

func (p lanePairs) Len() int           { return len(p.vs) }
func (p lanePairs) Less(i, j int) bool { return p.vs[i] < p.vs[j] }
func (p lanePairs) Swap(i, j int) {
	p.vs[i], p.vs[j] = p.vs[j], p.vs[i]
	p.ms[i], p.ms[j] = p.ms[j], p.ms[i]
}

// dedupOr sorts the (vertex, mask) pairs by vertex and OR-merges the
// masks of duplicates in place — the lane analogue of the union fold's
// duplicate elimination. It returns the compacted slices and the
// number of pairs the merge absorbed.
func dedupOr(vs []uint32, ms []uint64) ([]uint32, []uint64, int) {
	if len(vs) < 2 {
		return vs, ms, 0
	}
	sort.Sort(lanePairs{vs, ms})
	w := 1
	for i := 1; i < len(vs); i++ {
		if vs[i] != vs[w-1] {
			vs[w], ms[w] = vs[i], ms[i]
			w++
		} else {
			ms[w-1] |= ms[i]
		}
	}
	return vs[:w], ms[:w], len(vs) - w
}

// multiState is one rank's lane-parallel search state.
type multiState struct {
	// reached[li] holds the lanes that have labeled owned vertex li.
	reached []uint64
	// fmask[li] holds the lanes that newly labeled li last sweep; the
	// nonzero entries are exactly the members of F.
	fmask []uint64
	// F is the lane-OR frontier: owned vertices with fmask != 0.
	F frontier.Frontier
	// levels[lane][li] is lane's level of owned vertex li.
	levels [][]int32
	sweep  int32
}

// newMultiState seeds the lanes owned by this rank.
func newMultiState(opts Options, sources []graph.Vertex, lo graph.Vertex, n int) *multiState {
	s := &multiState{
		reached: make([]uint64, n),
		fmask:   make([]uint64, n),
		F:       opts.newFrontier(lo, n),
		levels:  make([][]int32, len(sources)),
	}
	for lane := range s.levels {
		lv := make([]int32, n)
		for i := range lv {
			lv[i] = graph.Unreached
		}
		s.levels[lane] = lv
	}
	for lane, src := range sources {
		if src < lo || src >= lo+graph.Vertex(n) {
			continue
		}
		li := uint32(src - lo)
		s.levels[lane][li] = 0
		s.reached[li] |= 1 << uint(lane)
		s.fmask[li] |= 1 << uint(lane)
		s.F.Add(uint32(src))
	}
	return s
}

// mark applies a deduplicated batch of (vertex, mask) arrivals owned
// by this rank: lanes not yet at a vertex label it at sweep+1 and
// re-enter the frontier carrying only the new lanes. It installs the
// next frontier and advances the sweep counter.
func (s *multiState) mark(opts Options, lo graph.Vertex, n int, rvs []uint32, rms []uint64, rec *rankLevel) {
	next := opts.newFrontier(lo, n)
	nextMask := make([]uint64, n)
	for i, gu := range rvs {
		li := gu - uint32(lo)
		nw := rms[i] &^ s.reached[li]
		if nw == 0 {
			continue
		}
		s.reached[li] |= nw
		for m := nw; m != 0; m &= m - 1 {
			s.levels[bits.TrailingZeros64(m)][li] = s.sweep + 1
		}
		rec.marked += bits.OnesCount64(nw)
		nextMask[li] = nw
		next.Add(gu)
	}
	s.F = next
	s.fmask = nextMask
	s.sweep++
}

// multiDrive runs lane-parallel sweeps until the global lane-OR
// frontier empties (or MaxLevels, or a cooperative cancellation).
func multiDrive(c *comm.Comm, e *multiEngine2D, opts Options, sources []graph.Vertex) ([]rankLevel, *multiState, *search.Canceled) {
	s := e.newMulti(sources)
	red := newReducer(c, opts)
	var recs []rankLevel
	for {
		if cxl := checkCancel(opts, red, c.Clock(), "sweep", int(s.sweep)); cxl != nil {
			return recs, s, cxl
		}
		if red.sum(uint64(s.F.Len())) == 0 {
			return recs, s, nil
		}
		if opts.MaxLevels > 0 && int(s.sweep) >= opts.MaxLevels {
			return recs, s, nil
		}
		recs = append(recs, e.sweep(s, int(s.sweep)*64))
	}
}

// multiEngine2D runs lane-parallel sweeps under the 2D partitioning,
// following the Algorithm 2 shape: targeted column expand of the
// lane-OR frontier (masks alongside), partial-list scan binning
// (neighbor, mask) pairs by owner column, row exchange, per-lane mark.
type multiEngine2D struct {
	c     *comm.Comm
	st    *partition.Store2D
	opts  Options
	model torus.CostModel
	colG  comm.Group
	rowG  comm.Group
	pl    *pool.Pool
	hist  frontier.ContainerHist
}

func newMultiEngine2D(c *comm.Comm, st *partition.Store2D, opts Options) *multiEngine2D {
	l := st.Layout
	mesh := comm.Mesh{R: l.R, C: l.C}
	c.SetCores(opts.Cores)
	return &multiEngine2D{
		c:     c,
		st:    st,
		opts:  opts,
		model: c.Model(),
		colG:  mesh.ColGroup(c.Rank()),
		rowG:  mesh.RowGroup(c.Rank()),
		pl:    pool.New(opts.Workers),
	}
}

func (e *multiEngine2D) newMulti(sources []graph.Vertex) *multiState {
	return newMultiState(e.opts, sources, e.st.Lo, e.st.OwnedCount())
}

// expandTargets is the targeted column expand's send side: each
// frontier vertex, lane mask alongside, is binned for the mesh rows
// holding a partial list for it, and the row-mask scan is charged. A
// dense store's single row takes the whole frontier, uncharged.
func (e *multiEngine2D) expandTargets(s *multiState) ([][]uint32, [][]uint64) {
	r := e.colG.Size()
	dense := e.st.Dense()
	sendV := make([][]uint32, r)
	sendM := make([][]uint64, r)
	s.F.Iterate(func(gv uint32) {
		li := e.st.LocalOf(graph.Vertex(gv))
		m := s.fmask[li]
		for i := 0; i < r; i++ {
			if dense || e.st.NeedsRow(li, i) {
				sendV[i] = append(sendV[i], gv)
				sendM[i] = append(sendM[i], m)
			}
		}
	})
	if !dense {
		e.c.ChargeItems(s.F.Len()*((r+63)/64), e.model.EdgeCost)
	}
	return sendV, sendM
}

func (e *multiEngine2D) sweep(s *multiState, tagBase int) rankLevel {
	if e.opts.Async {
		return e.sweepAsync(s, tagBase)
	}
	tm := newLevelTimer(e.c)
	h0 := e.hist
	rec := rankLevel{dir: TopDown, frontier: s.F.Len()}
	l := e.st.Layout
	b := len(s.levels)
	sendV, sendM := e.expandTargets(s)
	parts := sendV
	if !e.st.Dense() {
		r := e.colG.Size()
		lo, n := e.st.Lo, e.st.OwnedCount()
		send := make([][]uint32, r)
		for i := 0; i < r; i++ {
			if i == e.colG.Me {
				continue // stays local, unencoded
			}
			send[i] = encodeLanes(e.pl, sendV[i], sendM[i], b, uint32(lo), n, e.opts.Wire, &e.hist)
		}
		o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords}
		var est collective.Stats
		parts, est = collective.AllToAll(e.c, e.colG, o, send)
		rec.expandWords = est.RecvWords
	}

	// Scan the partial edge lists of every received frontier vertex and
	// bin the discovered (neighbor, mask) pairs by owner mesh column
	// (scanLanes runs on the worker pool and charges the scan).
	binV := make([][]uint32, l.C)
	binM := make([][]uint64, l.C)
	for i, p := range parts {
		var avs []uint32
		var ams []uint64
		if i == e.colG.Me {
			avs, ams = sendV[i], sendM[i]
		} else {
			avs, ams = decodeLanes(e.pl, p, b)
		}
		rec.edges += e.scanLanes(avs, ams, binV, binM)
	}

	// Local lane merge per destination ("merged to form N" with an OR
	// instead of a union), then the row exchange to the owners.
	for j := range binV {
		var d int
		binV[j], binM[j], d = dedupOr(binV[j], binM[j])
		rec.dups += d
		e.c.ChargeItems(len(binV[j])+d, e.model.VertexCost)
	}
	sendR := make([][]uint32, l.C)
	for j := range binV {
		if j == e.rowG.Me {
			continue
		}
		dlo, dhi := l.OwnedRange(e.rowG.World(j))
		sendR[j] = encodeLanes(e.pl, binV[j], binM[j], b, uint32(dlo), int(dhi-dlo), e.opts.Wire, &e.hist)
	}
	o2 := collective.Opts{Tag: tagBase + 1<<24, Chunk: e.opts.ChunkWords}
	rparts, fst := collective.AllToAll(e.c, e.rowG, o2, sendR)
	rec.foldWords = fst.RecvWords

	var rvs []uint32
	var rms []uint64
	for j, p := range rparts {
		var pvs []uint32
		var pms []uint64
		if j == e.rowG.Me {
			pvs, pms = binV[j], binM[j]
		} else {
			pvs, pms = decodeLanes(e.pl, p, b)
		}
		rvs = append(rvs, pvs...)
		rms = append(rms, pms...)
	}
	var d int
	rvs, rms, d = dedupOr(rvs, rms)
	rec.dups += d
	e.c.ChargeItems(len(rvs)+d, e.model.VertexCost)

	s.mark(e.opts, e.st.Lo, e.st.OwnedCount(), rvs, rms, &rec)
	rec.containers = e.hist.Sub(h0)
	tm.record(&rec)
	return rec
}

// validateSources checks a multi-source batch against the lane
// capacity and the vertex range.
func validateSources(sources []graph.Vertex, n int) error {
	if len(sources) == 0 {
		return fmt.Errorf("bfs: multi-source batch is empty")
	}
	if len(sources) > MaxLanes {
		return fmt.Errorf("bfs: %d sources exceed the %d-lane batch capacity", len(sources), MaxLanes)
	}
	for i, s := range sources {
		if int(s) >= n {
			return fmt.Errorf("bfs: source %d (lane %d) out of range for n=%d", s, i, n)
		}
	}
	return nil
}

// finishMulti assembles the global per-lane level arrays and the
// nearest-source Levels from the per-rank owned slices.
func finishMulti(res *MultiResult, n int, ranges func(rank int) (graph.Vertex, graph.Vertex), laneLevels [][][]int32) {
	b := res.B
	res.LaneLevels = make([][]int32, b)
	for lane := 0; lane < b; lane++ {
		res.LaneLevels[lane] = make([]int32, n)
	}
	for rank, lanes := range laneLevels {
		lo, hi := ranges(rank)
		for lane := 0; lane < b; lane++ {
			copy(res.LaneLevels[lane][int(lo):int(hi)], lanes[lane])
		}
	}
	res.Levels = make([]int32, n)
	for v := range res.Levels {
		min := graph.Unreached
		for lane := 0; lane < b; lane++ {
			if l := res.LaneLevels[lane][v]; l != graph.Unreached && (min == graph.Unreached || l < min) {
				min = l
			}
		}
		res.Levels[v] = min
	}
}

// MultiRun2D executes a batched multi-source BFS over the 2D edge
// partitioning (or a degenerate 1D mesh). Direction is always
// top-down; the sent-neighbors cache does not apply (a vertex must be
// re-sent when it carries new lanes) and is ignored.
func MultiRun2D(w *comm.World, stores []*partition.Store2D, sources []graph.Vertex, opts Options) (*MultiResult, error) {
	l, err := validateRun(w, stores, opts)
	if err != nil {
		return nil, err
	}
	if err := validateSources(sources, l.N); err != nil {
		return nil, err
	}
	if err := validateRobustness(opts, false); err != nil {
		return nil, err
	}

	res := &MultiResult{B: len(sources), Sources: append([]graph.Vertex(nil), sources...)}
	res.N, res.R, res.C = l.N, l.R, l.C
	perRank := make([][]rankLevel, w.P)
	laneLevels := make([][][]int32, w.P)
	probes := make([]uint64, w.P)
	w.SetTrace(opts.Trace)
	defer w.SetTrace(nil)
	w.SetFault(opts.Fault)
	defer w.SetFault(nil)
	start := time.Now()
	cancels := make([]*search.Canceled, w.P)
	comms, err := w.Run(func(c *comm.Comm) {
		st := stores[c.Rank()]
		e := newMultiEngine2D(c, st, opts)
		probes0 := st.Probes()
		recs, s, cxl := multiDrive(c, e, opts, sources)
		perRank[c.Rank()] = recs
		laneLevels[c.Rank()] = s.levels
		probes[c.Rank()] = st.Probes() - probes0
		cancels[c.Rank()] = cxl
	})
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	mergeStats(&res.Result, perRank, comms)
	for _, p := range probes {
		res.HashProbes += p
	}
	finishMulti(res, l.N, func(rank int) (graph.Vertex, graph.Vertex) {
		return l.OwnedRange(rank)
	}, laneLevels)
	publishMetrics(opts.Metrics, &res.Result)
	if cxl := search.MergeCanceled(cancels); cxl != nil {
		return res, cxl
	}
	return res, nil
}
