package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	bgl "repro"
)

func TestNearestRank(t *testing.T) {
	s := []float64{50, 15, 40, 35, 20}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
	if !reflect.DeepEqual(s, []float64{50, 15, 40, 35, 20}) {
		t.Errorf("nearestRank reordered its input: %v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Start: ms(2), End: ms(5)},  // overlaps span 2
		{ID: 4, Parent: 1, Start: ms(8), End: ms(12)}, // runs past its parent
		{ID: 5, Parent: 3, Start: ms(2), End: ms(4)},
	}
	want := []time.Duration{ms(4), ms(2), ms(1), ms(4), ms(2)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// drawOps returns the first n operations of each workload kind for seed.
func drawOps(seed uint64, n int) []op {
	pool := make([]int, 1000)
	for i := range pool {
		pool[i] = 3 * i
	}
	var out []op
	for _, mk := range []func(*planner) op{
		func(p *planner) op { return p.engineOp(kindBFS, kindPath) },
		func(p *planner) op { return p.engineOp(kindMulti, kindSSSP) },
		func(p *planner) op { return p.mixOp(0) },
	} {
		p := newPlanner(seed, verticesOf(pool))
		for i := 0; i < n; i++ {
			out = append(out, mk(p))
		}
	}
	return out
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := drawOps(7, 40), drawOps(7, 40), drawOps(8, 40)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different operation sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same operation sequence")
	}
}

func TestWarmupCoversEveryKindOnBothPartitions(t *testing.T) {
	for _, w := range [][2]kind{{kindBFS, kindPath}, {kindMulti, kindSSSP}} {
		p := newPlanner(1, verticesOf([]int{1, 2, 3}))
		seen := map[[2]int]bool{}
		for i := 0; i < 4; i++ {
			o := p.engineOp(w[0], w[1])
			seen[[2]int{int(o.kind), o.part}] = true
		}
		if len(seen) != 4 {
			t.Errorf("%v/%v: the first cycle covers %v, want both kinds on both partitionings", w[0], w[1], seen)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runSmall runs a workload at 1/100 of its graph size and returns the
// information line and the report.
func runSmall(t *testing.T, workload string, cfg config) (map[string]any, report) {
	t.Helper()
	cfg.shrink, cfg.traceDir = 100, t.TempDir()
	if cfg.seconds == 0 {
		cfg.seconds = 0.2
	}
	var buf bytes.Buffer
	if err := run(workload, cfg, &buf); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: %d output lines, want 2", workload, len(lines))
	}
	var info map[string]any
	var rep report
	if err := json.Unmarshal([]byte(lines[0]), &info); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rep); err != nil {
		t.Fatal(err)
	}
	return info, rep
}

func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if !reflect.DeepEqual(names, known) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, known)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.file), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.file[i].Name != d.name || c.file[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, c.file[i].Name, c.file[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestSmokeEveryWorkload runs each workload small, untraced and traced,
// and requires every named metric with its unit, every answer correct,
// and the same digest from every run with the same seed.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			var digests []any
			for _, traced := range []bool{false, true, false} {
				info, rep := runSmall(t, name, config{seed: 3, traced: traced})
				digests = append(digests, info["digest"])
				if info["fingerprint"] == nil || info["seed"] != 3.0 {
					t.Errorf("traced=%v: information line lacks the fingerprint or seed: %v", traced, info)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, rep.Correct, rep.Attempted, rep.Failed)
				}
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %s missing", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("traced=%v: %s unit %q, want %q", traced, m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("%s = %v, want > 0", m.Name, got.Value)
					}
				}
			}
			if digests[0] != digests[1] || digests[0] != digests[2] {
				t.Errorf("digests differ across runs with one seed: %v", digests)
			}
		})
	}
}

// TestCorruptedAnswerFails feeds one wrong answer into each workload's
// verification and requires it to count as a failure.
func TestCorruptedAnswerFails(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			corrupted := 0
			corrupt := func(_ op, a *answer) {
				if corrupted > 0 {
					return
				}
				corrupted++
				a.distance++
				for _, lane := range a.levels {
					lane[0]++
				}
				if len(a.dists) > 0 {
					a.dists[0]++
				}
			}
			_, rep := runSmall(t, name, config{seed: 5, traced: true, corrupt: corrupt})
			if corrupted != 1 || rep.Correct || rep.Failed != 1 {
				t.Fatalf("corrupted %d answers: correct=%v failed=%d", corrupted, rep.Correct, rep.Failed)
			}
			if got, want := rep.Metrics["failed_share"].Value, 1/float64(rep.Attempted); got != want {
				t.Errorf("failed_share %v, want %v", got, want)
			}
		})
	}
}

func verticesOf(vs []int) []bgl.Vertex {
	out := make([]bgl.Vertex, len(vs))
	for i, v := range vs {
		out[i] = bgl.Vertex(v)
	}
	return out
}
