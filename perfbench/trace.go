package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, on the host clock. Parent is the
// ID of the enclosing span (0 for a root); Tid is the calling
// goroutine's lane in the trace viewer (the graphd client index, or 0).
type span struct {
	Name       string
	ID, Parent int
	Tid        int
	Start, End time.Duration
	Args       map[string]any
}

// tracer keeps spans in memory and writes them as Chrome trace JSON when
// the run ends. A nil *tracer records nothing, so the untraced run pays
// only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, tid int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Tid: tid, Start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id and attaches args to it.
func (t *tracer) end(id int, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	s.Args = args
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed like spans.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write saves the spans as a Chrome trace (chrome://tracing, Perfetto)
// with meta — the host fingerprint and the seed — under "otherData".
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "self_us": float64(self[i].Nanoseconds()) / 1e3}
		for k, v := range s.Args {
			args[k] = v
		}
		events[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3, Pid: 1, Tid: s.Tid, Args: args}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": meta})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
