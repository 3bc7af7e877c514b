package bfs

import (
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/search"
)

// reducer performs the per-level global reductions (frontier count,
// target-found flag, best meeting distance) either on the modeled
// combine-tree network or over point-to-point torus messages
// (Options.P2PTermination).
type reducer struct {
	c     *comm.Comm
	world comm.Group
	p2p   bool
	tag   int
}

func newReducer(c *comm.Comm, opts Options) *reducer {
	r := &reducer{c: c, p2p: opts.P2PTermination}
	if r.p2p {
		r.world = comm.Group{Ranks: make([]int, c.Size()), Me: c.Rank()}
		for i := range r.world.Ranks {
			r.world.Ranks[i] = i
		}
		r.tag = 1 << 28
	}
	return r
}

func (r *reducer) sum(v uint64) uint64 {
	if !r.p2p {
		return r.c.AllReduceSum(v)
	}
	r.tag += 1 << 21
	return collective.AllReduceP2P(r.c, r.world, collective.Opts{Tag: r.tag}, v, collective.OpSum)
}

func (r *reducer) or(b bool) bool {
	if !r.p2p {
		return r.c.AllReduceOr(b)
	}
	var v uint64
	if b {
		v = 1
	}
	r.tag += 1 << 21
	return collective.AllReduceP2P(r.c, r.world, collective.Opts{Tag: r.tag}, v, collective.OpOr) != 0
}

func (r *reducer) min(v uint64) uint64 {
	if !r.p2p {
		return r.c.AllReduceMin(v)
	}
	r.tag += 1 << 21
	return collective.AllReduceP2P(r.c, r.world, collective.Opts{Tag: r.tag}, v, collective.OpMin)
}

// chooseDirection picks a level's expansion direction from Beamer's
// true alpha heuristic: a level runs bottom-up when the edges a
// top-down expansion would scan (the frontier's out-degree, mf) exceed
// 1/alpha of the edges the bottom-up parent search would probe in the
// worst case (the unlabeled set's out-degree, mu). Both inputs are
// globally reduced, so every rank makes the same choice without extra
// communication. Compared to the vertex-count ratio this fires on
// degree-skewed frontiers and on the moderately sized frontiers of the
// bi-directional driver, where counting vertices never did.
func chooseDirection(opts Options, mf, mu uint64) Direction {
	switch opts.Direction {
	case TopDown:
		return TopDown
	case BottomUp:
		return BottomUp
	case DirectionOptimizing:
		// mu == 0 means the unlabeled remainder has no edges at all
		// (only isolated vertices are left): nothing can be labeled
		// either way, so stay with the paper's top-down expansion.
		if mu > 0 && float64(mf)*opts.doAlpha() >= float64(mu) {
			return BottomUp
		}
		return TopDown
	default:
		panic(fmt.Sprintf("bfs: unknown direction policy %v", opts.Direction))
	}
}

// stepDir advances one level in the chosen direction. The engines stamp
// rec.dir themselves (before the level span closes, so the trace and the
// Result agree); a caller-side stamp here would land after the span's
// dir arg was already emitted.
func stepDir(e *engine2D, s *sideState, dir Direction, tagBase int) (rankLevel, bool) {
	if dir == BottomUp {
		return e.stepBottomUp(s, tagBase)
	}
	return e.step(s, tagBase)
}

// checkCancel polls the cooperative cancellation hook at a boundary
// and reduces the verdict so every rank agrees. unit/done describe the
// boundary for the Canceled error. A nil hook costs nothing.
func checkCancel(opts Options, red *reducer, clock float64, unit string, done int) *search.Canceled {
	if opts.Cancel == nil {
		return nil
	}
	cause := opts.Cancel(clock)
	if !red.or(cause != nil) {
		return nil
	}
	return &search.Canceled{Unit: unit, Done: done, Cause: cause}
}

// driveUni runs a uni-directional level-synchronized search to
// completion (empty global frontier), target discovery, the MaxLevels
// bound, or a cooperative cancellation (non-nil *search.Canceled — the
// state holds the partial labeling). It returns the per-level records,
// the search state, and whether the target was found (globally agreed).
func driveUni(c *comm.Comm, e *engine2D, opts Options) ([]rankLevel, *sideState, bool, *search.Canceled) {
	red := newReducer(c, opts)
	dirop := opts.Direction == DirectionOptimizing
	var s *sideState
	var recs []rankLevel
	// Every vertex joins the frontier exactly once, at the level it is
	// labeled, so subtracting each level frontier's out-degree tracks
	// the unlabeled set's out-degree with one extra reduction per
	// level. Fixed policies skip the degree machinery entirely.
	var unlabeledDeg uint64
	if opts.Restore != nil {
		// Resume from a snapshot: load engine + transport state and
		// skip the charged initialization (it already happened in the
		// checkpointing run and its cost is in the restored ledgers).
		if err := opts.Restore.Check("bfs", c.Size(), runFingerprint(e, opts, c.Size())); err != nil {
			panic(err.Error())
		}
		var redTag int
		s, recs, unlabeledDeg, redTag = restoreUniBlob(c, e, opts, opts.Restore.Blobs[c.Rank()])
		red.tag = redTag
	} else {
		s = e.newSide(opts.Source)
		if dirop {
			unlabeledDeg = red.sum(e.totalOutDegree())
		}
	}
	for {
		if opts.Checkpoint.Enabled() && opts.Restore == nil && int(s.level) == opts.Checkpoint.At {
			// Halt here: snapshot this rank's complete state at the top
			// of level At, before any of its reductions or exchanges.
			opts.Checkpoint.Put("bfs", opts.Checkpoint.At, c.Size(), c.Rank(),
				runFingerprint(e, opts, c.Size()),
				saveUniBlob(c, e, s, recs, unlabeledDeg, red.tag))
			return recs, s, false, nil
		}
		if cxl := checkCancel(opts, red, c.Clock(), "level", int(s.level)); cxl != nil {
			return recs, s, false, cxl
		}
		gf := red.sum(uint64(s.F.Len()))
		if gf == 0 {
			return recs, s, false, nil
		}
		var frontierDeg uint64
		if dirop {
			frontierDeg = red.sum(e.frontierOutDegree(s))
			unlabeledDeg -= frontierDeg
		}
		if opts.MaxLevels > 0 && int(s.level) >= opts.MaxLevels {
			return recs, s, false, nil
		}
		dir := chooseDirection(opts, frontierDeg, unlabeledDeg)
		rec, foundLocal := stepDir(e, s, dir, int(s.level)*64)
		recs = append(recs, rec)
		if opts.HasTarget && red.or(foundLocal) {
			return recs, s, true, nil
		}
	}
}

// bidirInf is the "no path found yet" sentinel for the bi-directional
// driver's best-distance reduction.
const bidirInf = uint64(math.MaxUint32)

// driveBidir runs the §2.3 bi-directional search: two sides expand
// alternately (always the side with the smaller global frontier), meets
// are detected when a side labels a vertex the other side already
// labeled, and the search stops once the best meeting distance is
// provably optimal (any undiscovered path must exceed the sum of the
// completed levels), either side exhausts, or a cooperative
// cancellation fires. It returns the records, the forward side's
// state, and the best distance (bidirInf if none).
func driveBidir(c *comm.Comm, e *engine2D, opts Options) ([]rankLevel, *sideState, uint64, *search.Canceled) {
	ss := e.newSide(opts.Source)
	ts := e.newSide(opts.Target)
	red := newReducer(c, opts)
	dirop := opts.Direction == DirectionOptimizing
	var recs []rankLevel
	best := bidirInf
	tagSeq := 0
	// Per-side out-degree tracking for the direction policy: a side's
	// current frontier degree is reduced once, the first time the side
	// is examined after it steps, and leaves that side's unlabeled
	// degree at the same moment. Each side labels its own vertices, so
	// the sides track independent unlabeled sets.
	var unS, unT, degS, degT uint64
	if dirop {
		total := red.sum(e.totalOutDegree())
		unS, unT = total, total
	}
	newS, newT := true, true
	for {
		if cxl := checkCancel(opts, red, c.Clock(), "level", len(recs)); cxl != nil {
			return recs, ss, best, cxl
		}
		gfs := red.sum(uint64(ss.F.Len()))
		gft := red.sum(uint64(ts.F.Len()))
		if dirop && newS {
			degS = red.sum(e.frontierOutDegree(ss))
			unS -= degS
		}
		if dirop && newT {
			degT = red.sum(e.frontierOutDegree(ts))
			unT -= degT
		}
		newS, newT = false, false
		exhausted := gfs == 0 || gft == 0
		proven := best != bidirInf && best <= uint64(ss.level)+uint64(ts.level)
		if exhausted || proven {
			return recs, ss, best, nil
		}
		if opts.MaxLevels > 0 && int(ss.level+ts.level) >= opts.MaxLevels {
			return recs, ss, best, nil
		}
		side, mf, mu := ss, degS, unS
		if gft < gfs {
			side, mf, mu = ts, degT, unT
		}
		other := ts
		if side == ts {
			other = ss
		}
		dir := chooseDirection(opts, mf, mu)
		rec, _ := stepDir(e, side, dir, tagSeq*64)
		if side == ss {
			newS = true
		} else {
			newT = true
		}
		tagSeq++
		side.F.Iterate(func(gu uint32) {
			li := e.st.LocalOf(graph.Vertex(gu))
			if other.L[li] != graph.Unreached {
				cand := uint64(side.L[li]) + uint64(other.L[li])
				if cand < best {
					best = cand
				}
			}
		})
		best = red.min(best)
		recs = append(recs, rec)
	}
}
