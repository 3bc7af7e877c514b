package sssp

import (
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/torus"
)

// Overlapped (asynchronous) relaxation rounds. They keep the
// synchronous payloads and statistics bit-for-bit; only the schedule
// changes: every exchange posts its sends before any wait, received
// request batches stream into the partial-list scan as they complete,
// and the delivery exchange's sends post per destination bin as each
// finishes its min-merge. The min-merge is order-insensitive, so the
// deduplicated request sets — and therefore the distances, relaxation
// counts, and re-settle traces — are identical to the synchronous path.

// dedupPrep wraps parallel request bins as a collective.Prep that
// min-merges (and charges) each bin the moment it is needed for
// posting, then encodes it against its destination's owned range (the
// self bin is min-merged too but never encoded — it stays local).
func dedupPrep(c *comm.Comm, model torus.CostModel, pl *pool.Pool, me int, wire frontier.WireMode, hist *frontier.ContainerHist,
	ownedRangeOf func(member int) (graph.Vertex, graph.Vertex), binV, binD [][]uint32) collective.Prep {
	deduped := make([]bool, len(binV))
	return func(m int) []uint32 {
		if !deduped[m] {
			var d int
			binV[m], binD[m], d = dedupMin(binV[m], binD[m])
			c.ChargeItems(len(binV[m])+d, model.VertexCost)
			deduped[m] = true
		}
		if m == me {
			return nil // stays local; the handler reads the bins directly
		}
		dlo, dhi := ownedRangeOf(m)
		return encodeRequests(pl, binV[m], binD[m], uint32(dlo), int(dhi-dlo), wire, hist)
	}
}

// scatterAsync is the overlapped relaxation round: the targeted column
// expand streams active batches into the scan, and the row exchange
// pipelines behind the per-bin min-merges.
func (e *engine2D) scatterAsync(vs, ds []uint32, light bool, delta uint32, tag int, rec *epochRec) ([]uint32, []uint32) {
	h0 := e.hist
	l := e.st.Layout
	binV := make([][]uint32, l.C)
	binD := make([][]uint32, l.C)
	sendV, sendD := e.expandTargets(vs, ds)
	if e.st.Dense() {
		rec.edges += e.relaxPart(sendV[0], sendD[0], light, delta, binV, binD)
	} else {
		lo, n := e.st.Lo, e.st.OwnedCount()
		handle := func(m int, part []uint32) {
			var avs, ads []uint32
			if m == e.colG.Me {
				avs, ads = sendV[m], sendD[m]
			} else {
				avs, ads = decodeRequests(e.pl, part)
			}
			rec.edges += e.relaxPart(avs, ads, light, delta, binV, binD)
		}
		prep := func(i int) []uint32 {
			if i == e.colG.Me {
				return nil
			}
			return encodeRequests(e.pl, sendV[i], sendD[i], uint32(lo), n, e.opts.Wire, &e.hist)
		}
		o := collective.Opts{Tag: tag, Chunk: e.opts.ChunkWords, Async: true}
		_, est := collective.AllToAllAsync(e.c, e.colG, o, prep, handle)
		rec.expandWords = est.RecvWords
	}

	prepR := dedupPrep(e.c, e.model, e.pl, e.rowG.Me, e.opts.Wire, &e.hist,
		func(m int) (graph.Vertex, graph.Vertex) { return l.OwnedRange(e.rowG.World(m)) },
		binV, binD)
	var rvs, rds []uint32
	handleR := func(j int, part []uint32) {
		var pvs, pds []uint32
		if j == e.rowG.Me {
			pvs, pds = binV[j], binD[j]
		} else {
			pvs, pds = decodeRequests(e.pl, part)
		}
		rvs = append(rvs, pvs...)
		rds = append(rds, pds...)
	}
	o2 := collective.Opts{Tag: tag + 1<<24, Chunk: e.opts.ChunkWords, Async: true}
	_, fst := collective.AllToAllAsync(e.c, e.rowG, o2, prepR, handleR)
	rec.foldWords = fst.RecvWords

	var d int
	rvs, rds, d = dedupMin(rvs, rds)
	e.c.ChargeItems(len(rvs)+d, e.model.VertexCost)
	rec.containers.Add(e.hist.Sub(h0))
	return rvs, rds
}
