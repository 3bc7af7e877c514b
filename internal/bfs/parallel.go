package bfs

import "repro/internal/pool"

// Intra-rank parallelism grains: pool chunk widths, in loop items, for
// the hot local loops. Boundaries are pure functions of the loop length
// (see internal/pool), so every worker count produces the same ordered
// merge. Frontier scans chunk by frontier vertex (each carrying a full
// or partial edge list); bottom-up scans chunk by owned/column vertex.
const (
	scanGrain  = 512
	ownedGrain = 2048
)

// scanLanes scans the partial edge lists of one decoded (vertex, mask)
// batch on the worker pool, appending discovered (neighbor, mask) pairs
// to the per-column bins in chunk order, and charges the pair handling,
// edge scan, and hash probes. Both the synchronous and overlapped 2D
// sweeps call it once per arrived part. A dense store's batch is its
// own frontier, not a received part, so it pays no handling.
func (e *multiEngine2D) scanLanes(avs []uint32, ams []uint64, binV [][]uint32, binM [][]uint64) int {
	l := e.st.Layout
	scanned := 0
	var probes uint64
	if nc := pool.Chunks(len(avs), scanGrain); e.pl.Workers() > 1 && nc > 1 {
		type chunkOut struct {
			binV    [][]uint32
			binM    [][]uint64
			scanned int
			probes  uint64
		}
		outs := make([]chunkOut, nc)
		e.pl.Run(len(avs), scanGrain, func(ch, lo, hi int) {
			o := &outs[ch]
			o.binV = make([][]uint32, l.C)
			o.binM = make([][]uint64, l.C)
			for idx := lo; idx < hi; idx++ {
				ci, ok, pr := e.st.Column(avs[idx])
				o.probes += uint64(pr)
				if !ok {
					continue // no partial list here (possible only locally)
				}
				mask := ams[idx]
				for i := e.st.Off[ci]; i < e.st.Off[ci+1]; i++ {
					o.scanned++
					u := e.st.Rows[i]
					j := l.ColBlockOf(u)
					o.binV[j] = append(o.binV[j], uint32(u))
					o.binM[j] = append(o.binM[j], mask)
				}
			}
		})
		for i := range outs {
			scanned += outs[i].scanned
			probes += outs[i].probes
			for j := range outs[i].binV {
				binV[j] = append(binV[j], outs[i].binV[j]...)
				binM[j] = append(binM[j], outs[i].binM[j]...)
			}
		}
	} else {
		for idx, gv := range avs {
			ci, ok, pr := e.st.Column(gv)
			probes += uint64(pr)
			if !ok {
				continue // no partial list here (possible only locally)
			}
			mask := ams[idx]
			for i := e.st.Off[ci]; i < e.st.Off[ci+1]; i++ {
				scanned++
				u := e.st.Rows[i]
				j := l.ColBlockOf(u)
				binV[j] = append(binV[j], uint32(u))
				binM[j] = append(binM[j], mask)
			}
		}
	}
	e.st.AddProbes(probes)
	if !e.st.Dense() {
		e.c.ChargeItemsPar(len(avs), e.model.VertexCost)
	}
	e.c.ChargeItemsPar(scanned, e.model.EdgeCost)
	e.c.ChargeItemsPar(int(probes), e.model.HashCost)
	return scanned
}
