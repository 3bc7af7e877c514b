package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	bgl "repro"
)

// engineSpec is a workload that calls the library directly: one
// Poisson graph with average degree 10 on a 4x4 cluster, distributed
// as Part2D and as Part1DCol, and a sequence alternating a bulk
// operation and a query operation on each partitioning.
type engineSpec struct {
	n           int
	weighted    bool
	bulk, query kind
}

// engineEnv is a set-up engine workload.
type engineEnv struct {
	spec engineSpec
	g    *bgl.Graph
	cl   *bgl.Cluster
	dg   [2]*bgl.DistGraph
	hops int // the graph's typical distance, for Path targets
}

const mb = 1 << 20

// allocMB returns the megabytes allocated since m0 was read.
func allocMB(m0 *runtime.MemStats) float64 {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / mb
}

// generate builds the workload graph; weighted graphs use the library's
// default weight distribution.
func generate(n int, weighted bool, seed uint64) (*bgl.Graph, error) {
	if weighted {
		return bgl.GenerateWeighted(n, 10, int64(seed))
	}
	return bgl.Generate(n, 10, int64(seed))
}

// setup generates the graph, builds the cluster and distributes the
// graph under both partitionings, timing each step.
func (s engineSpec) setup(seed uint64, led *ledger, tr *tracer) (*engineEnv, error) {
	root := tr.begin("setup", 0, 0)
	defer tr.end(root, nil)
	t0 := time.Now()
	sp := tr.begin("graph.generate", root, 0)
	g, err := generate(s.n, s.weighted, seed)
	tr.end(sp, nil)
	if err != nil {
		return nil, err
	}
	led.sample("generate_s", time.Since(t0).Seconds())
	cl, err := bgl.NewCluster(bgl.ClusterConfig{R: 4, C: 4})
	if err != nil {
		return nil, err
	}
	env := &engineEnv{spec: s, g: g, cl: cl}
	for i, p := range parts {
		var m0 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		sp := tr.begin("partition.distribute."+partNames[i], root, 0)
		t := time.Now()
		dg, err := cl.Distribute(g, bgl.WithPartition(p))
		d := time.Since(t)
		tr.end(sp, nil)
		if err != nil {
			return nil, err
		}
		env.dg[i] = dg
		led.sample("distribute_s."+partNames[i], d.Seconds())
		if tr != nil {
			led.sample("distribute_mb."+partNames[i], allocMB(&m0))
		}
	}
	led.sample("setup_s", time.Since(t0).Seconds())
	return env, nil
}

// call runs one operation through the public API and records its
// timings and the counts its Result carries. Only the API call itself
// is timed; call returns its duration.
func (e *engineEnv) call(o op, led *ledger, tr *tracer) (*answer, time.Duration, error) {
	dg := e.dg[o.part]
	suffix := "." + partNames[o.part]
	var m0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	var (
		res  *bgl.Result // BFS-family result
		sres *bgl.SSSPResult
		a    answer
		err  error
	)
	sp := tr.begin(o.kind.String()+suffix, 0, 0)
	t := time.Now()
	switch o.kind {
	case kindBFS:
		res, err = e.cl.BFS(dg, o.src, bgl.WithDirection(bgl.DirectionOptimizing), bgl.WithWire(bgl.WireHybrid))
	case kindPath:
		a.path, res, err = e.cl.Path(dg, o.src, o.dst)
	case kindMulti:
		var mres *bgl.MultiResult
		if mres, err = e.cl.MultiBFS(dg, o.lanes, bgl.WithWire(bgl.WireHybrid)); err == nil {
			res, a.levels = &mres.Result, mres.LaneLevels
		}
	case kindSSSP:
		sres, err = e.cl.SSSP(dg, o.src)
	}
	wall := time.Since(t)
	if err != nil {
		tr.end(sp, map[string]any{"error": err.Error()})
		return nil, wall, fmt.Errorf("%s from %d on %s: %w", o.kind, o.src, partNames[o.part], err)
	}

	var engine time.Duration
	if res != nil {
		engine = res.Wall
		a.words, a.simExec, a.simComm = res.TotalExpandWords+res.TotalFoldWords, res.SimTime, res.SimComm
		led.add("bfs_calls", 1)
		led.add("edges_scanned", float64(res.TotalEdgesScanned))
		led.add("hash_probes", float64(res.HashProbes))
		for _, ls := range res.PerLevel {
			if ls.Direction == bgl.BottomUp {
				led.add("bottomup_levels", 1)
			}
		}
		led.add("msgs", float64(res.MsgsRecv))
		led.add("hop_bytes", float64(res.HopBytes))
		switch o.kind {
		case kindBFS:
			a.levels = [][]int32{res.Levels}
		case kindPath:
			a.distance = int64(res.Distance)
		case kindMulti:
			led.add("sweeps", 1)
			led.add("sweep_dups", float64(res.TotalDups))
		}
	} else {
		engine = sres.Wall
		a.dists, a.words, a.simExec, a.simComm = sres.Dist, sres.TotalWords(), sres.SimTime, sres.SimComm
		led.add("sssp_calls", 1)
		led.add("epochs", float64(sres.Epochs))
		led.add("relaxations", float64(sres.TotalRelaxations))
		led.add("resettles", float64(sres.TotalReSettles))
		led.add("msgs", float64(sres.MsgsRecv))
		led.add("hop_bytes", float64(sres.HopBytes))
	}
	if tr != nil {
		alloc := allocMB(&m0)
		led.add("engine_alloc_mb", alloc)
		tr.end(sp, map[string]any{"src": o.src, "engine_ms": ms(engine), "words": a.words, "sim_exec_s": a.simExec, "alloc_mb": alloc})
	}

	led.add("engine_calls", 1)
	led.add("words", float64(a.words))
	led.add("sim_exec_s", a.simExec)
	led.add("sim_comm_s", a.simComm)
	led.sample("overhead_ms", ms(wall-engine))
	if o.kind == e.spec.bulk {
		units := 1
		if o.kind == kindMulti {
			units = len(o.lanes)
		}
		led.sample("rate"+suffix, float64(units)/wall.Seconds())
		led.sample("engine_bulk_ms"+suffix, ms(engine))
	} else {
		led.sample("latency_ms"+suffix, ms(wall))
		led.sample("engine_query_ms"+suffix, ms(engine))
	}
	return &a, wall, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// check verifies an answer against the serial oracles.
func (e *engineEnv) check(o op, a *answer) error {
	switch o.kind {
	case kindBFS:
		return checkLevels(e.g, o.src, a.levels[0])
	case kindPath:
		return checkPath(e.g, o.src, o.dst, a.path, a.distance, o.dist)
	case kindMulti:
		if len(a.levels) != len(o.lanes) {
			return fmt.Errorf("multibfs: %d lanes answered, %d sent", len(a.levels), len(o.lanes))
		}
		// The lanes are independent: check them on every core.
		errs := make([]error, len(o.lanes))
		var wg sync.WaitGroup
		for w := 0; w < runtime.NumCPU(); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(o.lanes); i += runtime.NumCPU() {
					errs[i] = checkLevels(e.g, o.lanes[i], a.levels[i])
				}
			}(w)
		}
		wg.Wait()
		return errors.Join(errs...)
	default:
		return checkDists(e.g, o.src, a.dists)
	}
}

// pathTarget draws o's Path target with the serial oracle: a vertex at
// the graph's typical distance from the source, or at the source's
// farthest distance if none is that far. Fixing the distance makes the
// latency that of one kind of query: a random target's distance varies,
// and each extra hop multiplies the search time several times over.
func (e *engineEnv) pathTarget(o *op) {
	levels := e.g.SerialBFS(o.src)
	count := make([]int, e.hops+1)
	for _, l := range levels {
		if l != bgl.Unreached && int(l) <= e.hops {
			count[l]++
		}
	}
	d := e.hops
	for count[d] == 0 {
		d--
	}
	k := int(o.pick % uint64(count[d]))
	for v, l := range levels {
		if int(l) == d {
			if k == 0 {
				o.dst, o.dist = bgl.Vertex(v), int64(d)
				return
			}
			k--
		}
	}
}

// runOp calls, then verifies outside the timed call, counting the
// attempt and any failure in out. It returns the answer (nil on
// failure) and the timed seconds of the call.
func (e *engineEnv) runOp(o op, out *outcome, led *ledger, tr *tracer, corrupt func(op, *answer)) (*answer, float64) {
	out.attempted++
	if o.kind == kindPath {
		e.pathTarget(&o)
	}
	a, wall, err := e.call(o, led, tr)
	if err == nil && corrupt != nil {
		corrupt(o, a)
	}
	if err == nil {
		err = e.check(o, a)
	}
	if err != nil {
		out.fail(err)
		a = nil
	}
	return a, wall.Seconds()
}

// pass runs whole cycles of the planned sequence until stop says so,
// and returns the operations run and their timed seconds.
func (e *engineEnv) pass(pl *planner, out *outcome, led *ledger, tr *tracer, corrupt func(op, *answer), stop func(done int, timed float64) bool) (int, float64) {
	done, timed := 0, 0.0
	for done%4 != 0 || !stop(done, timed) {
		_, s := e.runOp(pl.engineOp(e.spec.bulk, e.spec.query), out, led, tr, corrupt)
		done++
		timed += s
	}
	return done, timed
}

// runEngine runs an engine workload: set-up (several times), an untimed
// warm-up of every operation kind on both partitionings, then the timed
// phase. A traced run times the same operations twice, untraced then
// traced, and reports the traced pass's per-layer numbers.
func runEngine(spec engineSpec, cfg config) (*outcome, error) {
	out := &outcome{led: newLedger()}
	if cfg.traced {
		out.tr = newTracer()
	}
	env, err := setUp(func() (*engineEnv, error) { return spec.setup(cfg.seed, out.led, out.tr) }, nil)
	if err != nil {
		return nil, err
	}
	pool, hops := component(env.g)
	env.hops = hops
	pl := newPlanner(cfg.seed, pool)

	h := fnv.New64a()
	for i := 0; i < 4; i++ {
		if a, _ := env.runOp(pl.engineOp(spec.bulk, spec.query), out, newLedger(), nil, nil); a != nil {
			a.digest(h)
		}
	}
	out.digest = h.Sum64()
	runtime.GC()

	if !cfg.traced {
		env.pass(pl, out, out.led, nil, cfg.corrupt, func(_ int, timed float64) bool { return timed >= cfg.seconds })
		return out, nil
	}
	replay := *pl
	n, untraced := env.pass(pl, out, newLedger(), nil, cfg.corrupt, func(_ int, timed float64) bool { return timed >= cfg.seconds/2 })
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, traced := env.pass(&replay, out, out.led, out.tr, cfg.corrupt, func(done int, _ float64) bool { return done >= n })
	out.led.recordRuntime(&m0)
	out.led.add("untraced_s", untraced)
	out.led.add("traced_s", traced)
	return out, nil
}
