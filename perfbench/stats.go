package main

import (
	"math"
	"runtime"
	"sort"
)

// nearestRank returns the p-th percentile (0 < p <= 100) of the raw
// samples by the nearest-rank rule: the smallest sample with at least
// p% of the samples at or below it. It returns 0 for no samples.
func nearestRank(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ledger accumulates one run's raw samples and counters by name. Every
// reported metric is computed from a ledger at the end of the run, so
// the workloads only record and never aggregate.
type ledger struct {
	samples map[string][]float64
	sums    map[string]float64
}

func newLedger() *ledger {
	return &ledger{samples: map[string][]float64{}, sums: map[string]float64{}}
}

// sample appends one raw observation of name.
func (l *ledger) sample(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// add accumulates v into the counter name.
func (l *ledger) add(name string, v float64) { l.sums[name] += v }

func (l *ledger) sum(name string) float64 { return l.sums[name] }

// pct is the nearest-rank percentile of name's samples.
func (l *ledger) pct(name string, p float64) float64 { return nearestRank(l.samples[name], p) }

func (l *ledger) count(name string) int { return len(l.samples[name]) }

// ratio is sum(num)/sum(den), or 0 when den is 0 (the workload never
// exercised that layer).
func (l *ledger) ratio(num, den string) float64 {
	if l.sums[den] == 0 {
		return 0
	}
	return l.sums[num] / l.sums[den]
}

// recordRuntime adds the garbage-collector cycles, pause time and
// allocation since m0 was read.
func (l *ledger) recordRuntime(m0 *runtime.MemStats) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	l.add("gc_cycles", float64(m1.NumGC-m0.NumGC))
	l.add("gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	l.add("alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/mb)
}
