package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	bgl "repro"
	"repro/internal/graphd"
	"repro/internal/metrics"
)

// graphdSpec is the serving workload: a weighted graph of n vertices on
// a 2x2 mesh, served by one in-process graphd per partitioning (one
// replica, default batching window) on a loopback listener, and a
// closed loop of nproc clients sending the graphload mix of s→t
// queries, first to the 2D server and then to the 1D-col one.
type graphdSpec struct {
	n int
}

// service is one graphd server listening on loopback.
type service struct {
	srv  *graphd.Server
	hs   *http.Server
	done chan error
	reg  *metrics.Registry
	base string
}

func startService(g *bgl.Graph, part bgl.Partition) (*service, error) {
	reg := metrics.NewRegistry()
	srv, err := graphd.NewServer(graphd.Config{Graph: g, R: 2, C: 2, Partition: part, Replicas: 1, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &service{srv: srv, hs: graphd.NewHTTPServer(srv.Handler()), done: make(chan error, 1), reg: reg, base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and its idle connections, waits for the
// serving goroutine to return, then drains the server.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // every client has finished; a timeout only leaves Serve to return below
	s.hs.Close()
	<-s.done
	s.srv.Close()
}

// graphdEnv is a set-up serving workload.
type graphdEnv struct {
	g   *bgl.Graph
	svc [2]*service
}

func (e *graphdEnv) stop() {
	for _, s := range e.svc {
		if s != nil {
			s.stop()
		}
	}
}

// setup generates the graph and starts a server per partitioning; each
// server distributes the graph in NewServer.
func (s graphdSpec) setup(seed uint64, led *ledger, tr *tracer) (*graphdEnv, error) {
	root := tr.begin("setup", 0, 0)
	defer tr.end(root, nil)
	t0 := time.Now()
	sp := tr.begin("graph.generate", root, 0)
	g, err := generate(s.n, true, seed)
	tr.end(sp, nil)
	if err != nil {
		return nil, err
	}
	led.sample("generate_s", time.Since(t0).Seconds())
	env := &graphdEnv{g: g}
	for i, p := range parts {
		var m0 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		sp := tr.begin("graphd.start."+partNames[i], root, 0)
		t := time.Now()
		svc, err := startService(g, p)
		d := time.Since(t)
		tr.end(sp, nil)
		if err != nil {
			env.stop()
			return nil, err
		}
		env.svc[i] = svc
		led.sample("distribute_s."+partNames[i], d.Seconds())
		if tr != nil {
			led.sample("distribute_mb."+partNames[i], allocMB(&m0))
		}
	}
	led.sample("setup_s", time.Since(t0).Seconds())
	return env, nil
}

// record is one graphd request as the client saw it.
type record struct {
	o       op
	a       *answer
	err     error
	latency time.Duration
	stats   graphd.QueryStats
}

// request sends one query and decodes the answer.
func request(c *graphd.Client, o op) (*answer, graphd.QueryStats, error) {
	src, dst := int(o.src), int(o.dst)
	a := &answer{distance: -1}
	var st graphd.QueryStats
	switch o.kind {
	case kindBFS:
		r, err := c.BFS(graphd.BFSRequest{Source: &src, Target: &dst})
		if err != nil {
			return nil, st, err
		}
		a.reached, st = r.Reached, r.Stats
		if r.Distance != nil {
			a.distance = int64(*r.Distance)
		}
	case kindPath:
		r, err := c.Path(graphd.PathRequest{Source: &src, Target: &dst})
		if err != nil {
			return nil, st, err
		}
		st = r.Stats
		if r.Found {
			a.distance = int64(r.Distance)
		}
		for _, v := range r.Path {
			a.path = append(a.path, bgl.Vertex(v))
		}
	default:
		r, err := c.SSSP(graphd.SSSPRequest{Source: &src, Target: &dst})
		if err != nil {
			return nil, st, err
		}
		a.reached, st = r.Reached, r.Stats
		if r.Distance != nil {
			a.distance = int64(*r.Distance)
		}
	}
	a.words, a.simExec, a.simComm = st.Words, st.SimExecS, st.SimCommS
	return a, st, nil
}

// newClient is a graphd client with retries off; hedging and the
// breaker are off by default.
func newClient(base string) *graphd.Client { return graphd.NewClient(base, graphd.WithRetries(0)) }

// closedLoop runs nproc clients against the server of partitioning
// part. Each sends its next planned query only after its previous
// answer, until stop says so. It returns the records and the time from
// the first send to the last answer.
func (e *graphdEnv) closedLoop(part int, pl *planner, tr *tracer, stop func(issued int, elapsed time.Duration) bool) ([]record, time.Duration) {
	var (
		mu     sync.Mutex
		recs   []record
		issued int
		wg     sync.WaitGroup
	)
	start := time.Now()
	for id := 0; id < runtime.NumCPU(); id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := newClient(e.svc[part].base)
			for {
				mu.Lock()
				if stop(issued, time.Since(start)) {
					mu.Unlock()
					return
				}
				o := pl.mixOp(part)
				issued++
				mu.Unlock()
				sp := tr.begin("graphd."+o.kind.String()+"."+partNames[part], 0, id+1)
				t := time.Now()
				a, st, err := request(c, o)
				lat := time.Since(t)
				if tr != nil {
					tr.end(sp, map[string]any{"src": o.src, "dst": o.dst, "queue_wait_ms": st.QueueWaitS * 1e3,
						"engine_ms": st.WallS * 1e3, "batch_size": st.BatchSize})
				}
				mu.Lock()
				recs = append(recs, record{o: o, a: a, err: err, latency: lat, stats: st})
				mu.Unlock()
			}
		}(id)
	}
	wg.Wait()
	return recs, time.Since(start)
}

// account adds a phase's requests to the ledger: latency, the
// server-reported queue wait and engine wall, the rest as HTTP and
// JSON, and the answered requests per second of the phase.
func account(part int, recs []record, elapsed time.Duration, led *ledger) {
	suffix := "." + partNames[part]
	answered := 0
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		answered++
		lat, queue, engine := ms(r.latency), r.stats.QueueWaitS*1e3, r.stats.WallS*1e3
		led.sample("latency_ms"+suffix, lat)
		led.sample("overhead_ms", lat-queue-engine)
		led.add("client_ms", lat)
		led.add("queue_wait_ms", queue)
		led.add("engine_ms", engine)
		led.add("http_ms", lat-queue-engine)
		if r.o.kind == kindBFS {
			led.sample("engine_bulk_ms"+suffix, engine)
		} else {
			led.sample("engine_query_ms"+suffix, engine)
		}
		led.add("engine_calls", 1)
		led.add("words", float64(r.a.words))
		led.add("sim_exec_s", r.a.simExec)
		led.add("sim_comm_s", r.a.simComm)
	}
	led.sample("rate"+suffix, float64(answered)/elapsed.Seconds())
}

// registryKeys maps the engines' registry counters to ledger keys. The
// BFS counters cover batched sweeps and path searches alike.
var registryKeys = map[string]string{
	"bfs_runs_total":          "bfs_calls",
	"bfs_edges_scanned_total": "edges_scanned",
	"bfs_hash_probes_total":   "hash_probes",
	"bfs_dup_vertices_total":  "sweep_dups",
	"sssp_runs_total":         "sssp_calls",
	"sssp_epochs_total":       "epochs",
	"sssp_relaxations_total":  "relaxations",
	"sssp_resettles_total":    "resettles",
}

// serverCounts snapshots the server's counters: the engines' registry
// and the /v1/stats batching and admission counts.
func (s *service) serverCounts() (map[string]float64, error) {
	out := map[string]float64{}
	for name, key := range registryKeys {
		out[key] = float64(s.reg.Counter(name).Value())
	}
	st, err := newClient(s.base).Stats()
	if err != nil {
		return nil, err
	}
	out["sweeps"] = float64(st.Queries.Batches)
	out["batched_queries"] = float64(st.Queries.BatchedQueries)
	out["rejected"] = float64(st.Queries.Rejected)
	out["errors"] = float64(st.Queries.Errors)
	return out, nil
}

// oracle computes the serial answers for one source at a time; verify
// walks the records sorted by source so each is computed once.
type oracle struct {
	g      *bgl.Graph
	src    bgl.Vertex
	levels []int32  // SerialBFS(src), once computed
	dists  []uint32 // SerialDijkstra(src), once computed
}

func (o *oracle) at(src bgl.Vertex, weighted bool) {
	if src != o.src {
		o.src, o.levels, o.dists = src, nil, nil
	}
	if weighted && o.dists == nil {
		o.dists = o.g.SerialDijkstra(src)
	} else if !weighted && o.levels == nil {
		o.levels = o.g.SerialBFS(src)
	}
}

// check verifies one graphd answer against the serial oracles.
func (o *oracle) check(q op, a *answer) error {
	o.at(q.src, q.kind == kindSSSP)
	switch q.kind {
	case kindBFS:
		want, reached := int64(o.levels[q.dst]), 0
		for _, l := range o.levels {
			if l != bgl.Unreached {
				reached++
			}
		}
		if a.reached != reached || a.distance != want {
			return fmt.Errorf("graphd bfs %d→%d: reached %d at distance %d, oracle %d at %d", q.src, q.dst, a.reached, a.distance, reached, want)
		}
		return nil
	case kindPath:
		return checkPath(o.g, q.src, q.dst, a.path, a.distance, int64(o.levels[q.dst]))
	default:
		want, reached := int64(o.dists[q.dst]), 0
		for _, d := range o.dists {
			if d != bgl.MaxDist {
				reached++
			}
		}
		if a.reached != reached || a.distance != want {
			return fmt.Errorf("graphd sssp %d→%d: reached %d at distance %d, oracle %d at %d", q.src, q.dst, a.reached, a.distance, reached, want)
		}
		return nil
	}
}

// verify checks every record after the timed phase, counting attempts
// and failures in out.
func (e *graphdEnv) verify(recs []record, out *outcome, corrupt func(op, *answer)) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].o.src < recs[j].o.src })
	orc := &oracle{g: e.g}
	for _, r := range recs {
		out.attempted++
		if r.err != nil {
			out.fail(r.err)
			continue
		}
		if corrupt != nil {
			corrupt(r.o, r.a)
		}
		if err := orc.check(r.o, r.a); err != nil {
			out.fail(err)
		}
	}
}

// segments is how many times the timed phase alternates between the
// servers.
const segments = 5

// segment runs one timed segment against the server of partitioning
// part, with the answers verified after it. A traced run sends the
// segment's queries twice, untraced then traced, and keeps the traced
// pass's per-layer numbers.
func (e *graphdEnv) segment(part int, pl *planner, out *outcome, cfg config) error {
	budget := cfg.seconds / 2 / segments
	if cfg.traced {
		budget /= 2
	}
	until := func(_ int, el time.Duration) bool { return el.Seconds() >= budget }
	if !cfg.traced {
		recs, elapsed := e.closedLoop(part, pl, nil, until)
		account(part, recs, elapsed, out.led)
		e.verify(recs, out, cfg.corrupt)
		return nil
	}
	replay := *pl
	recs, untraced := e.closedLoop(part, pl, nil, until)
	e.verify(recs, out, cfg.corrupt)
	n := len(recs)
	before, err := e.svc[part].serverCounts()
	if err != nil {
		return err
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recs, traced := e.closedLoop(part, &replay, out.tr, func(issued int, _ time.Duration) bool { return issued >= n })
	out.led.recordRuntime(&m0)
	out.led.add("engine_alloc_mb", allocMB(&m0))
	after, err := e.svc[part].serverCounts()
	if err != nil {
		return err
	}
	for k, v := range after {
		out.led.add(k, v-before[k])
	}
	account(part, recs, traced, out.led)
	out.led.add("untraced_s", untraced.Seconds())
	out.led.add("traced_s", traced.Seconds())
	e.verify(recs, out, cfg.corrupt)
	return nil
}

// runGraphd runs the serving workload: set-up (several times), a
// sequential warm-up of every query kind on both servers, then the
// timed closed loop, alternating between the servers.
func runGraphd(spec graphdSpec, cfg config) (*outcome, error) {
	out := &outcome{led: newLedger()}
	if cfg.traced {
		out.tr = newTracer()
	}
	env, err := setUp(func() (*graphdEnv, error) { return spec.setup(cfg.seed, out.led, out.tr) }, (*graphdEnv).stop)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	pool, _ := component(env.g)
	pl := newPlanner(cfg.seed, pool)

	// One client sending one query at a time: every sweep has a single
	// lane, so words and simulated seconds are deterministic.
	h := fnv.New64a()
	var warm []record
	for part := range parts {
		c := newClient(env.svc[part].base)
		for _, k := range []kind{kindBFS, kindPath, kindSSSP} {
			o := op{kind: k, part: part, src: pl.vertex(), dst: pl.vertex()}
			a, st, err := request(c, o)
			warm = append(warm, record{o: o, a: a, err: err, stats: st})
		}
	}
	for _, r := range warm {
		if r.a != nil {
			r.a.digest(h)
		}
	}
	out.digest = h.Sum64()
	env.verify(warm, out, nil)
	runtime.GC()

	// The measured time alternates between the two servers in short
	// segments, so that a burst of load from outside the benchmark
	// lands on both partitionings alike.
	for seg := 0; seg < segments; seg++ {
		for part := range parts {
			if err := env.segment(part, pl, out, cfg); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
