package sssp

import (
	"repro/internal/graph"
	"repro/internal/pool"
)

// relaxGrain is the pool chunk width, in active vertices, for the
// relaxation scans. Chunk boundaries are pure functions of the batch
// length (see internal/pool), so per-chunk request bins concatenate in
// a worker-count-independent order; the downstream dedupMin sorts them
// anyway, making the delivered request sets — and every count —
// bit-identical to the serial scan.
const relaxGrain = 512

// relaxPart scans the partial edge lists of one arrived active batch
// on the worker pool, appending relax requests to the per-column bins
// in chunk order, and charges the pair handling, edge scan, and hash
// probes. Both 2D schedules call it once per arrived part. A dense
// store's batch is its own active set, not a received part, so it pays
// no handling.
func (e *engine2D) relaxPart(avs, ads []uint32, light bool, delta uint32, binV, binD [][]uint32) int {
	l := e.st.Layout
	scanned := 0
	var probes uint64
	if nc := pool.Chunks(len(avs), relaxGrain); e.pl.Workers() > 1 && nc > 1 {
		type chunkOut struct {
			binV    [][]uint32
			binD    [][]uint32
			scanned int
			probes  uint64
		}
		outs := make([]chunkOut, nc)
		e.pl.Run(len(avs), relaxGrain, func(ch, lo, hi int) {
			o := &outs[ch]
			o.binV = make([][]uint32, l.C)
			o.binD = make([][]uint32, l.C)
			for idx := lo; idx < hi; idx++ {
				ci, ok, pr := e.st.Column(avs[idx])
				o.probes += uint64(pr)
				if !ok {
					continue // no partial list here (possible only locally)
				}
				dv := ads[idx]
				for i := e.st.Off[ci]; i < e.st.Off[ci+1]; i++ {
					o.scanned++
					w := e.weightAt(i)
					if (w <= delta) != light {
						continue
					}
					cand := dv + w
					if cand < dv || cand == graph.MaxDist {
						continue // saturated: stays unreachable
					}
					u := e.st.Rows[i]
					j := l.ColBlockOf(u)
					o.binV[j] = append(o.binV[j], uint32(u))
					o.binD[j] = append(o.binD[j], cand)
				}
			}
		})
		for i := range outs {
			scanned += outs[i].scanned
			probes += outs[i].probes
			for j := range outs[i].binV {
				binV[j] = append(binV[j], outs[i].binV[j]...)
				binD[j] = append(binD[j], outs[i].binD[j]...)
			}
		}
	} else {
		for idx, gv := range avs {
			ci, ok, pr := e.st.Column(gv)
			probes += uint64(pr)
			if !ok {
				continue // no partial list here (possible only locally)
			}
			dv := ads[idx]
			for i := e.st.Off[ci]; i < e.st.Off[ci+1]; i++ {
				scanned++
				w := e.weightAt(i)
				if (w <= delta) != light {
					continue
				}
				cand := dv + w
				if cand < dv || cand == graph.MaxDist {
					continue // saturated: stays unreachable
				}
				u := e.st.Rows[i]
				j := l.ColBlockOf(u)
				binV[j] = append(binV[j], uint32(u))
				binD[j] = append(binD[j], cand)
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
