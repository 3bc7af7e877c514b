package bfs

import (
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/pool"
)

// Bottom-up level expansion (the direction-optimizing complement to the
// paper's top-down Algorithms 1 and 2): instead of the frontier pushing
// its neighbors to their owners, every still-unlabeled vertex searches
// its own edge list for a parent already in the frontier and stops at
// the first hit. Communication is dense bitmaps with per-level volume
// fixed by the partitioning (independent of frontier size) — unless
// Options.Wire is WireHybrid, in which case every bitmap payload is
// re-encoded through the chunked container codec and sparse or
// clustered bitmaps collapse to a fraction of their raw width.

// wireBits encodes a bitmap payload over an n-bit universe for the
// wire under the configured encoding (the identity except under
// WireHybrid).
func wireBits(p *pool.Pool, opts Options, h *frontier.ContainerHist, words []uint32, n int) []uint32 {
	return frontier.EncodeBitsPar(p, words, n, opts.Wire, h)
}

// unwireBitPieces restores gathered bitmap pieces in place; piece i
// covers universe size widths(i).
func unwireBitPieces(p *pool.Pool, opts Options, pieces [][]uint32, widths func(i int) int) {
	if opts.Wire != frontier.WireHybrid {
		return
	}
	for i := range pieces {
		pieces[i] = frontier.DecodeBitsPar(p, pieces[i], widths(i))
	}
}

// stepBottomUp runs one bottom-up level under the 2D partitioning:
//
//  1. Processor-row all-gather of owned-frontier bitmaps — the owners
//     of every vertex appearing in my partial edge lists are exactly my
//     processor row, so afterwards I can test any row vertex for
//     frontier membership.
//  2. Processor-column all-gather of unlabeled-owned bitmaps — my
//     processor column collectively owns every vertex whose partial
//     lists this column stores.
//  3. Local scan: for each still-unlabeled vertex with a non-empty
//     partial list here, stop at the first frontier parent and claim it
//     for its owner.
//  4. Processor-column OR-reduce-scatter of the claim bitmaps back to
//     the owners, which mark and build the next frontier.
//
// Under WireHybrid all three bitmap exchanges carry container-encoded
// payloads (the gathers at the caller edges, the claims through
// collective.Opts.Codec).
//
// On a dense store (1×P mesh) steps 2 and 4 are the identity: the scan
// reads this rank's own levels and keeps its own claims, so the level is
// Algorithm 1's bottom-up shape — one frontier all-gather over all P
// ranks, then a scan of full edge lists.
func (e *engine2D) stepBottomUp(s *sideState, tagBase int) (rankLevel, bool) {
	tm := newLevelTimer(e.c)
	l := e.st.Layout
	bs := uint32(l.BlockSize())
	h0 := e.hist
	// dir is stamped here, not by the caller: the level span closes
	// inside tm.record with rec.dir as its arg.
	rec := rankLevel{dir: BottomUp, frontier: s.F.Len()}

	// Per-piece handling charge for the pipelined gathers (received
	// pieces only, the synchronous charge split across arrivals).
	chargeRecv := func(me int) collective.Handle {
		return func(m int, piece []uint32) {
			if m != me {
				e.c.ChargeItems(len(piece), e.model.VertexCost)
			}
		}
	}
	gather := func(g comm.Group, o collective.Opts, data []uint32) ([][]uint32, collective.Stats) {
		if e.opts.Async {
			return collective.AllGatherAsync(e.c, g, o, data, chargeRecv(g.Me))
		}
		pieces, st := collective.AllGather(e.c, g, o, data)
		e.c.ChargeItems(st.RecvWords, e.model.VertexCost)
		return pieces, st
	}

	o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	fSend := wireBits(e.pl, e.opts, &e.hist, frontier.Bits(s.F), e.st.OwnedCount())
	fPieces, fst := gather(e.rowG, o, fSend)
	unwireBitPieces(e.pl, e.opts, fPieces, func(i int) int { return l.OwnedCount(e.rowG.Ranks[i]) })

	dense := e.st.Dense()
	var uPieces [][]uint32
	rec.expandWords = fst.RecvWords
	if !dense {
		un := frontier.NewBits(e.st.OwnedCount())
		for li, lv := range s.L {
			if lv == graph.Unreached {
				frontier.SetBit(un, uint32(li))
			}
		}
		o2 := collective.Opts{Tag: tagBase + 1<<22, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
		var ust collective.Stats
		uPieces, ust = gather(e.colG, o2, wireBits(e.pl, e.opts, &e.hist, un, e.st.OwnedCount()))
		unwireBitPieces(e.pl, e.opts, uPieces, func(i int) int { return l.OwnedCount(e.colG.Ranks[i]) })
		rec.expandWords += ust.RecvWords
	}

	// My row vertices u lie in the blocks my processor row owns; index
	// the gathered frontier pieces by block.
	fByBlock := make([][]uint32, l.P())
	for i, piece := range fPieces {
		fByBlock[l.BlockOfRank(e.rowG.Ranks[i])] = piece
	}
	inFrontier := func(u graph.Vertex) bool {
		b := uint32(u) / bs
		return frontier.TestBit(fByBlock[b], uint32(u)-b*bs)
	}
	// colPos locates column ci's vertex within my processor column: the
	// column-group member m owning it and its offset in m's block.
	// unlabeled reads that member's gathered bitmap (on a dense store,
	// my own levels).
	colBase := uint32(e.st.J * l.R * l.BlockSize())
	colPos := func(ci int) (int, uint32) {
		if dense {
			return 0, uint32(ci)
		}
		x := uint32(e.st.ColIds[ci]) - colBase
		m := x / bs
		return int(m), x - m*bs
	}
	unlabeled := func(m int, off uint32) bool {
		if dense {
			return s.L[off] == graph.Unreached
		}
		return frontier.TestBit(uPieces[m], off)
	}

	claims := make([][]uint32, l.R)
	for i := 0; i < l.R; i++ {
		claims[i] = frontier.NewBits(l.OwnedCount(e.colG.Ranks[i]))
	}
	edges := 0
	ncols := e.st.Columns()
	if nc := pool.Chunks(ncols, ownedGrain); e.pl.Workers() > 1 && nc > 1 {
		// Distinct column vertices can claim distinct bits of a shared
		// claims word, so the set must be a CAS; which bits get set is
		// schedule-independent (each vertex's scan touches only its own
		// partial list).
		chunkEdges := make([]int, nc)
		e.pl.Run(ncols, ownedGrain, func(ch, lo, hi int) {
			for ci := lo; ci < hi; ci++ {
				m, off := colPos(ci)
				if !unlabeled(m, off) {
					continue
				}
				for _, u := range e.st.Rows[e.st.Off[ci]:e.st.Off[ci+1]] {
					chunkEdges[ch]++
					if inFrontier(u) {
						frontier.SetBitAtomic(claims[m], off)
						break
					}
				}
			}
		})
		for _, n := range chunkEdges {
			edges += n
		}
	} else {
		for ci := 0; ci < ncols; ci++ {
			m, off := colPos(ci)
			if !unlabeled(m, off) {
				continue
			}
			for _, u := range e.st.Rows[e.st.Off[ci]:e.st.Off[ci+1]] {
				edges++
				if inFrontier(u) {
					frontier.SetBit(claims[m], off)
					break
				}
			}
		}
	}
	rec.edges = edges
	if !dense {
		e.c.ChargeItemsPar(ncols, e.model.VertexCost) // the column-bitmap sweep
	}
	e.c.ChargeItemsPar(edges, e.model.EdgeCost)

	mine := claims[0] // a 1-member column's claim reduce is the identity
	if !dense {
		o3 := collective.Opts{Tag: tagBase + 2<<22, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
		if e.opts.Wire == frontier.WireHybrid {
			o3.Codec = &collective.Codec{
				Enc: func(m int, w []uint32) []uint32 {
					return frontier.EncodeBitsPar(e.pl, w, l.OwnedCount(e.colG.Ranks[m]), e.opts.Wire, &e.hist)
				},
				Dec: func(m int, buf []uint32) []uint32 {
					return frontier.DecodeBitsPar(e.pl, buf, l.OwnedCount(e.colG.Ranks[m]))
				},
			}
		}
		var cst collective.Stats
		if e.opts.Async {
			mine, cst = collective.ReduceScatterOrAsync(e.c, e.colG, o3,
				func(m int) []uint32 { return claims[m] }, chargeRecv(e.colG.Me))
		} else {
			mine, cst = collective.ReduceScatterOr(e.c, e.colG, o3, claims)
			e.c.ChargeItems(cst.RecvWords, e.model.VertexCost)
		}
		rec.foldWords = cst.RecvWords
	}

	next := e.opts.newFrontier(e.st.Lo, e.st.OwnedCount())
	foundTarget := false
	frontier.IterateBits(mine, func(li uint32) {
		if s.L[li] != graph.Unreached {
			return // claims are built from a pre-level snapshot
		}
		s.L[li] = s.level + 1
		gv := e.st.GlobalOf(li)
		next.Add(uint32(gv))
		rec.marked++
		if e.opts.HasTarget && gv == e.opts.Target {
			foundTarget = true
		}
	})
	s.F = next
	s.level++
	rec.containers = e.hist.Sub(h0)
	tm.record(&rec)
	return rec, foundTarget
}
