package bfs

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/localindex"
	"repro/internal/torus"
)

// Overlapped (asynchronous) level schedules. Every exchange posts its
// sends before any wait and streams received parts straight into the
// hash-probe scan as they complete, so the wire time of the parts still
// in flight hides under the scan compute that dominates the §4.2
// profile — and the fold's sends post per bin, as each bin finishes its
// sort-merge, instead of after the whole merge. Results are identical
// to the synchronous path (the scans, unions, min-merges, and OR-merges
// are order-insensitive, and the sent-neighbors cache admits each
// vertex exactly once in any order); only the simulated clock — and the
// OverlapS ledger — changes.

// foldAlgKey maps a FoldAlg onto collective.FoldAsync's dispatcher key.
func foldAlgKey(a FoldAlg) string {
	switch a {
	case FoldDirect:
		return "direct"
	case FoldTwoPhase:
		return "twophase"
	case FoldTwoPhaseNoUnion:
		return "twophase-nounion"
	case FoldBruck:
		return "bruck"
	default:
		panic(fmt.Sprintf("bfs: unknown fold algorithm %v", a))
	}
}

// sortPrep wraps the neighbor bins as a collective.Prep that sorts (and
// charges) each bin the moment it is needed for posting, so the early
// bins' transfers fly while the later bins are still being merged.
func sortPrep(c *comm.Comm, model torus.CostModel, bins [][]uint32) collective.Prep {
	sorted := make([]bool, len(bins))
	return func(m int) []uint32 {
		if !sorted[m] {
			var d int
			bins[m], d = localindex.SortSet(bins[m])
			c.ChargeItems(len(bins[m])+d, model.VertexCost)
			sorted[m] = true
		}
		return bins[m]
	}
}

// expandAsync posts the expand with the pipelined schedule, streaming
// every part — this rank's own portion first — through handle.
func (e *engine2D) expandAsync(s *sideState, tag int, handle collective.Handle) collective.Stats {
	o := collective.Opts{Tag: tag, Chunk: e.opts.ChunkWords, Async: true}
	switch e.opts.Expand {
	case ExpandTargeted:
		r := e.colG.Size()
		send := make([][]uint32, r)
		s.F.Iterate(func(gv uint32) {
			li := e.st.LocalOf(graph.Vertex(gv))
			for i := 0; i < r; i++ {
				if e.st.NeedsRow(li, i) {
					send[i] = append(send[i], gv)
				}
			}
		})
		e.c.ChargeItems(s.F.Len()*((r+63)/64), e.model.EdgeCost)
		prep := func(i int) []uint32 {
			if i == e.colG.Me {
				return send[i] // stays local, unencoded
			}
			return e.expandWire(send[i])
		}
		_, st := collective.AllToAllAsync(e.c, e.colG, o, prep, handle)
		return st
	case ExpandAllGather:
		_, st := collective.AllGatherAsync(e.c, e.colG, o, e.wireFrontier(s.F), handle)
		return st
	case ExpandTwoPhase:
		o.BundleMerge = e.expandBundleMerge()
		_, st := collective.TwoPhaseExpandAsync(e.c, e.colG, o, e.wireFrontier(s.F), handle)
		return st
	default:
		panic(fmt.Sprintf("bfs: unknown expand algorithm %v", e.opts.Expand))
	}
}

// stepAsync is the overlapped top-down level: each expand part's
// hash-probe scan runs while the remaining parts are on the wire, and
// the fold's sends post per sorted bin.
func (e *engine2D) stepAsync(s *sideState, tagBase int) (rankLevel, bool) {
	tm := newLevelTimer(e.c)
	h0 := e.hist
	rec := rankLevel{frontier: s.F.Len()}
	bins := make([][]uint32, e.st.Layout.C)
	if e.st.Dense() {
		// A 1-member column's expand is the identity: scan the frontier.
		rec.edges = e.scanPart(s, s.F.Vertices(), bins)
	} else {
		scan := func(m int, part []uint32) {
			// Mirror expandUnwire: WireSparse parts are raw id lists that
			// never saw the sentinel guard, so they must not go through
			// Decode.
			if e.opts.Wire != frontier.WireSparse {
				part = frontier.DecodePar(e.pl, part) // no-op on raw lists and local parts
			}
			e.c.ChargeItemsPar(len(part), e.model.VertexCost)
			rec.edges += e.scanPart(s, part, bins)
		}
		est := e.expandAsync(s, tagBase, scan)
		rec.expandWords = est.RecvWords
	}

	o := collective.Opts{Tag: tagBase + 1<<24, Chunk: e.opts.ChunkWords, Async: true}
	o.Codec = foldCodec(e.c.Tracer(), e.pl, e.opts.Wire, e.rowG, e.st.Layout.OwnedRange, &e.hist)
	nbar, fst := collective.FoldAsync(e.c, e.rowG, o, foldAlgKey(e.opts.Fold), sortPrep(e.c, e.model, bins))
	rec.foldWords = fst.RecvWords
	rec.dups = fst.Dups

	foundTarget := false
	e.c.ChargeItems(len(nbar), e.model.VertexCost)
	next := e.opts.newFrontier(e.st.Lo, e.st.OwnedCount())
	for _, gu := range nbar {
		li := e.st.LocalOf(graph.Vertex(gu))
		if s.L[li] == graph.Unreached {
			s.L[li] = s.level + 1
			next.Add(gu)
			rec.marked++
			if e.opts.HasTarget && graph.Vertex(gu) == e.opts.Target {
				foundTarget = true
			}
		}
	}
	s.F = next
	s.level++
	rec.containers = e.hist.Sub(h0)
	tm.record(&rec)
	return rec, foundTarget
}

// sweepAsync is the overlapped lane-parallel sweep under the 2D
// partitioning: lane payloads stream into the partial-list scan as they
// arrive, and the row exchange posts per bin as each finishes its
// OR-merge.
func (e *multiEngine2D) sweepAsync(s *multiState, tagBase int) rankLevel {
	tm := newLevelTimer(e.c)
	h0 := e.hist
	rec := rankLevel{dir: TopDown, frontier: s.F.Len()}
	l := e.st.Layout
	b := len(s.levels)
	binV := make([][]uint32, l.C)
	binM := make([][]uint64, l.C)
	sendV, sendM := e.expandTargets(s)
	if e.st.Dense() {
		rec.edges = e.scanLanes(sendV[0], sendM[0], binV, binM)
	} else {
		lo, n := e.st.Lo, e.st.OwnedCount()
		handle := func(m int, part []uint32) {
			var avs []uint32
			var ams []uint64
			if m == e.colG.Me {
				avs, ams = sendV[m], sendM[m]
			} else {
				avs, ams = decodeLanes(e.pl, part, b)
			}
			rec.edges += e.scanLanes(avs, ams, binV, binM)
		}
		prep := func(i int) []uint32 {
			if i == e.colG.Me {
				return nil // stays local; handle reads sendV/sendM directly
			}
			return encodeLanes(e.pl, sendV[i], sendM[i], b, uint32(lo), n, e.opts.Wire, &e.hist)
		}
		o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords, Async: true}
		_, est := collective.AllToAllAsync(e.c, e.colG, o, prep, handle)
		rec.expandWords = est.RecvWords
	}

	deduped := make([]bool, l.C)
	prepR := func(j int) []uint32 {
		if !deduped[j] {
			var d int
			binV[j], binM[j], d = dedupOr(binV[j], binM[j])
			rec.dups += d
			e.c.ChargeItems(len(binV[j])+d, e.model.VertexCost)
			deduped[j] = true
		}
		if j == e.rowG.Me {
			return nil
		}
		dlo, dhi := l.OwnedRange(e.rowG.World(j))
		return encodeLanes(e.pl, binV[j], binM[j], b, uint32(dlo), int(dhi-dlo), e.opts.Wire, &e.hist)
	}
	var rvs []uint32
	var rms []uint64
	handleR := func(j int, part []uint32) {
		var pvs []uint32
		var pms []uint64
		if j == e.rowG.Me {
			pvs, pms = binV[j], binM[j]
		} else {
			pvs, pms = decodeLanes(e.pl, part, b)
		}
		rvs = append(rvs, pvs...)
		rms = append(rms, pms...)
	}
	o2 := collective.Opts{Tag: tagBase + 1<<24, Chunk: e.opts.ChunkWords, Async: true}
	_, fst := collective.AllToAllAsync(e.c, e.rowG, o2, prepR, handleR)
	rec.foldWords = fst.RecvWords

	var d int
	rvs, rms, d = dedupOr(rvs, rms)
	rec.dups += d
	e.c.ChargeItems(len(rvs)+d, e.model.VertexCost)
	s.mark(e.opts, e.st.Lo, e.st.OwnedCount(), rvs, rms, &rec)
	rec.containers = e.hist.Sub(h0)
	tm.record(&rec)
	return rec
}
