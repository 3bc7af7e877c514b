// Command perfbench is the repository's host-clock benchmark. It
// generates every input from a seed, times only the calls into each
// layer's public functions, checks every answer against the serial
// oracles outside the timed intervals, and prints one JSON line of
// metrics, each with its unit.
//
//	perfbench --workload table1-400k --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (see endToEnd).
// With --trace 1 they are the per-layer ones (see perLayer), taken
// from a traced pass over the same operations as an untraced pass, and
// the spans are written as Chrome trace JSON under .bench_out.
//
// The line before it carries the host fingerprint, the seed, the
// sample counts and a digest of the deterministic outputs (levels,
// distances, words, simulated seconds) of the warm-up operations. The
// digest is identical across runs with the same seed, traced or not.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	seed     uint64
	seconds  float64 // measured time of the timed phase
	traced   bool
	traceDir string
	// corrupt, when set, may alter each timed operation's answer before
	// it is checked, and shrink > 1 divides every graph size. The tests
	// use them to prove that a wrong answer counts as a failure and to
	// smoke-run every workload quickly.
	corrupt func(o op, a *answer)
	shrink  int
}

// size is n divided by the shrink factor.
func (c config) size(n int) int {
	if c.shrink > 1 {
		return n / c.shrink
	}
	return n
}

// A run sets its workload up at least minSetups times, and more until
// the set-ups have taken setupBudget, so that setup_s is the median of
// several even when one set-up takes milliseconds. The last set-up
// serves the operations.
const (
	minSetups   = 3
	setupBudget = 2 * time.Second
)

// setUp runs setup repeatedly as above, releasing each set-up but the
// last (release may be nil) and returning its memory before the next.
func setUp[T any](setup func() (T, error), release func(T)) (T, error) {
	var env T
	start := time.Now()
	for rep := 0; rep < minSetups || time.Since(start) < setupBudget; rep++ {
		if rep > 0 && release != nil {
			release(env)
		}
		var zero T
		env = zero
		debug.FreeOSMemory()
		var err error
		if env, err = setup(); err != nil {
			return zero, err
		}
	}
	return env, nil
}

// workloads maps each workload name to its runner at full size.
var workloads = map[string]func(config) (*outcome, error){
	"table1-400k": func(c config) (*outcome, error) {
		return runEngine(engineSpec{n: c.size(400000), bulk: kindBFS, query: kindPath}, c)
	},
	"batch-100k": func(c config) (*outcome, error) {
		return runEngine(engineSpec{n: c.size(100000), weighted: true, bulk: kindMulti, query: kindSSSP}, c)
	},
	"graphd-mix": func(c config) (*outcome, error) {
		return runGraphd(graphdSpec{n: c.size(20000)}, c)
	},
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	led       *ledger
	attempted int
	failed    int
	digest    uint64
	tr        *tracer
}

// fail counts a failed operation and reports the first few.
func (o *outcome) fail(err error) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric, its unit and how it is computed from a
// run's ledger. The same definitions serve every workload; a layer a
// workload does not call reports a zero count.
type metricDef struct {
	name, unit string
	value      func(l *ledger) float64
}

func pct50(key string) func(*ledger) float64 {
	return func(l *ledger) float64 { return l.pct(key, 50) }
}

func ratio(num, den string) func(*ledger) float64 {
	return func(l *ledger) float64 { return l.ratio(num, den) }
}

func sum(key string) func(*ledger) float64 {
	return func(l *ledger) float64 { return l.sum(key) }
}

// perPart expands a definition over both partitionings: the metric
// name gets the partition suffix, and value receives it to build the
// ledger keys.
func perPart(name, unit string, value func(suffix string) func(*ledger) float64) []metricDef {
	var out []metricDef
	for _, p := range partNames {
		out = append(out, metricDef{name + "." + p, unit, value("." + p)})
	}
	return out
}

// pct50Part is pct50 for a per-partition ledger key.
func pct50Part(key string) func(string) func(*ledger) float64 {
	return func(suffix string) func(*ledger) float64 { return pct50(key + suffix) }
}

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// endToEnd are the metrics a user of the system sees, measured untraced.
// ops_per_s is the median rate of the workload's throughput operation:
// full BFS traversals, or MultiBFS sources, per host second of one call,
// or graphd requests answered per second of one timed segment. The
// median keeps a burst of load from outside the benchmark from moving
// it. The latency is the median over its query operation (Path, SSSP,
// or any graphd request, client send to decoded answer) on each
// partitioning, averaged over the two: one partitioning alone gives too
// few samples for a steady median, and the median of both pooled lands
// between the two partitionings' latencies when they differ.
var endToEnd = concat(
	[]metricDef{
		{"setup_s", "s", pct50("setup_s")},
		{"peak_rss_mb", "MB", sum("peak_rss_mb")},
	},
	perPart("ops_per_s", "1/s", pct50Part("rate")),
	[]metricDef{{"latency_ms_p50", "ms", func(l *ledger) float64 {
		return (l.pct("latency_ms.2d", 50) + l.pct("latency_ms.1dcol", 50)) / 2
	}}},
)

// perLayer are the metrics of single layers, from the traced pass. The
// comments name the end-to-end metric each group should move, and on
// which workload. "bulk" and "query" are the operations behind ops_per_s
// and latency_ms_p50; on graphd-mix the engine times are the
// server-reported engine wall of BFS (batched sweep) and of path and
// SSSP requests.
var perLayer = concat(
	// setup_s on every workload; peak_rss_mb. Distribution is large on
	// table1-400k and small on batch-100k; on graphd-mix it is timed as
	// NewServer, which distributes the graph.
	[]metricDef{{"graph.generate_s", "s", pct50("generate_s")}},
	perPart("partition.distribute_s", "s", pct50Part("distribute_s")),
	perPart("partition.alloc_mb", "MB", pct50Part("distribute_mb")),
	// ops_per_s and latency_ms_p50 on every workload.
	perPart("engine.bulk_ms_p50", "ms", pct50Part("engine_bulk_ms")),
	perPart("engine.query_ms_p50", "ms", pct50Part("engine_query_ms")),
	[]metricDef{
		// Allocation per engine call; on graphd-mix the whole process's
		// per request.
		{"engine.alloc_mb_per_call", "MB", ratio("engine_alloc_mb", "engine_calls")},
		// Call latency outside the engine: Path reconstruction and option
		// plumbing, or on graphd-mix HTTP and JSON.
		{"api.overhead_ms_p50", "ms", pct50("overhead_ms")},
		// ops_per_s and latency_ms_p50 on table1-400k (BFS and Path).
		{"bfs.edges_scanned_per_call", "count", ratio("edges_scanned", "bfs_calls")},
		{"bfs.bottomup_levels_per_call", "count", ratio("bottomup_levels", "bfs_calls")},
		{"localindex.hash_probes_per_call", "count", ratio("hash_probes", "bfs_calls")},
		// ops_per_s on batch-100k: the pairs dedupOr merges. It should not
		// move table1-400k.
		{"multibfs.dups_per_sweep", "count", ratio("sweep_dups", "sweeps")},
		// latency_ms_p50 on batch-100k, and graphd's SSSP tail.
		{"sssp.epochs_per_call", "count", ratio("epochs", "sssp_calls")},
		{"sssp.relaxations_per_call", "count", ratio("relaxations", "sssp_calls")},
		{"sssp.resettle_ratio", "share", ratio("resettles", "relaxations")},
		// Deterministic on the engine workloads: a host-side change must
		// not move them. graphd exposes no message counts, so comm and
		// torus read 0 on graphd-mix.
		{"frontier.words_per_call", "count", ratio("words", "engine_calls")},
		{"comm.msgs_per_call", "count", ratio("msgs", "engine_calls")},
		{"torus.hop_bytes_per_call", "bytes", ratio("hop_bytes", "engine_calls")},
		{"sim.exec_s_per_call", "sim_s", ratio("sim_exec_s", "engine_calls")},
		{"sim.comm_s_per_call", "sim_s", ratio("sim_comm_s", "engine_calls")},
		// latency_ms_p50 and ops_per_s on graphd-mix: where a request's
		// time went (admission, batch window and lease wait; engine; the
		// rest is HTTP and JSON), batching, and refusals. 0 elsewhere.
		{"graphd.queue_wait_share", "share", ratio("queue_wait_ms", "client_ms")},
		{"graphd.engine_share", "share", ratio("engine_ms", "client_ms")},
		{"graphd.http_share", "share", ratio("http_ms", "client_ms")},
		{"graphd.batch_size_mean", "queries", ratio("batched_queries", "sweeps")},
		{"graphd.rejected", "count", sum("rejected")},
		{"graphd.errors", "count", sum("errors")},
		// Every time and rate on every workload.
		{"runtime.gc_cycles", "count", sum("gc_cycles")},
		{"runtime.gc_pause_ms", "ms", sum("gc_pause_ms")},
		{"runtime.alloc_mb", "MB", sum("alloc_mb")},
		// The traced pass's timed seconds over the untraced pass's, minus 1.
		{"trace.overhead_share", "share", func(l *ledger) float64 { return l.ratio("traced_s", "untraced_s") - 1 }},
		{"failed_share", "share", ratio("failed", "attempted")},
	},
)

// report is the last line of the benchmark's output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// makeReport computes the metrics of the run's mode from its ledger.
func makeReport(o *outcome, traced bool) report {
	o.led.add("attempted", float64(o.attempted))
	o.led.add("failed", float64(o.failed))
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: d.value(o.led), Unit: d.unit}
	}
	return r
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// fingerprint identifies the host, so that wall-clock numbers are
// compared only between runs on the same kind of machine.
func fingerprint() map[string]any {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu, "os": runtime.GOOS, "arch": runtime.GOARCH,
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: table1-400k, batch-100k or graphd-mix")
		seed     = flag.Uint64("seed", 1, "seed of the generated graph and operation sequence")
		seconds  = flag.Float64("seconds", 25, "measured seconds of the timed phase")
		traceOn  = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced pass")
	)
	flag.Parse()
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traceOn == 1, traceDir: ".bench_out"}
	if err := run(*workload, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs one workload and writes the information line and the report
// line to w.
func run(workload string, cfg config, w io.Writer) error {
	runner, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	o, err := runner(cfg)
	if err != nil {
		return err
	}
	o.led.add("peak_rss_mb", peakRSSMB())
	info := map[string]any{
		"workload": workload, "seed": cfg.seed, "traced": cfg.traced,
		"fingerprint": fingerprint(), "digest": fmt.Sprintf("%016x", o.digest),
		"samples": map[string]int{
			"latency.2d": o.led.count("latency_ms.2d"), "latency.1dcol": o.led.count("latency_ms.1dcol"),
			"setup": o.led.count("setup_s"),
		},
	}
	if cfg.traced {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.trace.json", workload, cfg.seed))
		if err := o.tr.write(path, info); err != nil {
			return err
		}
		info["trace"] = path
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(info); err != nil {
		return err
	}
	return enc.Encode(makeReport(o, cfg.traced))
}
