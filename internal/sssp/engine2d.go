package sssp

import (
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/torus"
	"repro/internal/trace"
)

// engine2D holds one rank's storage handles for Δ-stepping under the
// 2D edge partitioning. Relaxation rounds follow the BFS Algorithm 2
// shape: a targeted processor-column expand carries the active
// (vertex, dist) pairs to the ranks holding partial edge lists, the
// local scan turns partial lists into relax requests, and a
// processor-row personalized exchange delivers the requests to the
// owners (every neighbor discovered on mesh row i is owned by a rank
// of row i, the same invariant the BFS fold rides).
//
// On a 1×P mesh (R = 1, the column-wise 1D partitioning) the store is
// dense and the column expand is the identity: active vertices relax
// their own full edge lists and a single personalized exchange over all
// P ranks delivers the requests (the Algorithm 1 fold shape). The
// engine neither performs nor charges the expand or the handling of
// its output.
type engine2D struct {
	c     *comm.Comm
	st    *partition.Store2D
	opts  Options
	model torus.CostModel
	colG  comm.Group
	rowG  comm.Group
	// pl is the per-rank worker pool the relaxation scans and the wire
	// codec run on; see parallel.go for the determinism contract.
	pl   *pool.Pool
	hist frontier.ContainerHist
}

func newEngine2D(c *comm.Comm, st *partition.Store2D, opts Options) *engine2D {
	l := st.Layout
	mesh := comm.Mesh{R: l.R, C: l.C}
	c.SetCores(opts.Cores)
	return &engine2D{
		c:     c,
		st:    st,
		opts:  opts,
		model: c.Model(),
		colG:  mesh.ColGroup(c.Rank()),
		rowG:  mesh.RowGroup(c.Rank()),
		pl:    pool.New(opts.Workers),
	}
}

func (e *engine2D) comm() *comm.Comm { return e.c }

func (e *engine2D) ownedRange() (graph.Vertex, int) { return e.st.Lo, e.st.OwnedCount() }

func (e *engine2D) universe() int { return e.st.Layout.N }

func (e *engine2D) maxWeight() uint32 {
	max := uint32(1)
	for _, w := range e.st.RowWts {
		if w > max {
			max = w
		}
	}
	return max
}

func (e *engine2D) localEdgeEntries() int { return len(e.st.Rows) }

// weightAt returns the weight of the i-th local partial-list entry
// (1 for unweighted stores).
func (e *engine2D) weightAt(i int64) uint32 {
	if e.st.RowWts == nil {
		return 1
	}
	return e.st.RowWts[i]
}

// scatter relaxes one class of edges out of the active owned vertices
// (vs ascending with parallel dists), exchanges the relax requests,
// and returns the requests destined to this rank, deduplicated to the
// minimum distance per vertex.
func (e *engine2D) scatter(vs, ds []uint32, light bool, delta uint32, tag int, rec *epochRec) ([]uint32, []uint32) {
	if e.opts.Async {
		return e.scatterAsync(vs, ds, light, delta, tag, rec)
	}
	return e.scatterSync(vs, ds, light, delta, tag, rec)
}

// expandTargets is the targeted column expand's send side: an active
// vertex is binned, tentative distance alongside, only for the mesh
// rows holding a non-empty partial edge list for it (§2.2), and the
// row-mask scan is charged. A dense store's single row takes the whole
// active set, uncharged.
func (e *engine2D) expandTargets(vs, ds []uint32) ([][]uint32, [][]uint32) {
	if e.st.Dense() {
		return [][]uint32{vs}, [][]uint32{ds}
	}
	r := e.colG.Size()
	sendV := make([][]uint32, r)
	sendD := make([][]uint32, r)
	for idx, gv := range vs {
		li := e.st.LocalOf(graph.Vertex(gv))
		for i := 0; i < r; i++ {
			if e.st.NeedsRow(li, i) {
				sendV[i] = append(sendV[i], gv)
				sendD[i] = append(sendD[i], ds[idx])
			}
		}
	}
	e.c.ChargeItems(len(vs)*((r+63)/64), e.model.EdgeCost)
	return sendV, sendD
}

// scatterSync is the phase-synchronous relaxation round.
func (e *engine2D) scatterSync(vs, ds []uint32, light bool, delta uint32, tag int, rec *epochRec) ([]uint32, []uint32) {
	h0 := e.hist
	l := e.st.Layout
	sendV, sendD := e.expandTargets(vs, ds)
	parts := sendV
	if !e.st.Dense() {
		r := e.colG.Size()
		lo, n := e.st.Lo, e.st.OwnedCount()
		send := make([][]uint32, r)
		for i := 0; i < r; i++ {
			if i == e.colG.Me {
				continue // stays local, unencoded
			}
			send[i] = encodeRequests(e.pl, sendV[i], sendD[i], uint32(lo), n, e.opts.Wire, &e.hist)
		}
		o := collective.Opts{Tag: tag, Chunk: e.opts.ChunkWords}
		var est collective.Stats
		parts, est = collective.AllToAll(e.c, e.colG, o, send)
		rec.expandWords = est.RecvWords
	}

	// Scan the partial edge lists of every received active vertex and
	// bin the resulting relax requests by owner mesh column (relaxPart
	// runs on the worker pool and charges the scan).
	binV := make([][]uint32, l.C)
	binD := make([][]uint32, l.C)
	scanned := 0
	tr := e.c.Tracer()
	tr.Begin("engine", "scan")
	for i, p := range parts {
		var avs, ads []uint32
		if i == e.colG.Me {
			avs, ads = sendV[i], sendD[i]
		} else {
			avs, ads = decodeRequests(e.pl, p)
		}
		scanned += e.relaxPart(avs, ads, light, delta, binV, binD)
	}
	rec.edges += scanned
	tr.End(trace.Arg{Key: "edges", Val: int64(scanned)})

	// Local minimum-merge per destination ("merged to form N" with a
	// min instead of a union), then the row exchange to the owners.
	for j := range binV {
		var d int
		binV[j], binD[j], d = dedupMin(binV[j], binD[j])
		e.c.ChargeItems(len(binV[j])+d, e.model.VertexCost)
	}
	sendR := make([][]uint32, l.C)
	for j := range binV {
		if j == e.rowG.Me {
			continue
		}
		dlo, dhi := l.OwnedRange(e.rowG.World(j))
		sendR[j] = encodeRequests(e.pl, binV[j], binD[j], uint32(dlo), int(dhi-dlo), e.opts.Wire, &e.hist)
	}
	o2 := collective.Opts{Tag: tag + 1<<24, Chunk: e.opts.ChunkWords}
	rparts, fst := collective.AllToAll(e.c, e.rowG, o2, sendR)
	rec.foldWords = fst.RecvWords

	var rvs, rds []uint32
	for j, p := range rparts {
		var pvs, pds []uint32
		if j == e.rowG.Me {
			pvs, pds = binV[j], binD[j]
		} else {
			pvs, pds = decodeRequests(e.pl, p)
		}
		rvs = append(rvs, pvs...)
		rds = append(rds, pds...)
	}
	var d int
	rvs, rds, d = dedupMin(rvs, rds)
	e.c.ChargeItems(len(rvs)+d, e.model.VertexCost)
	rec.containers.Add(e.hist.Sub(h0))
	return rvs, rds
}
