package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pdm"
)

// span is one timed interval of a traced run: a benchmark-side call into
// a public API (job, service.upload, engine.load, ...), a timestamp
// interval the daemon reported (service.queue, service.run), or one
// backend call reported by pdm.InstrumentBackend (pdm.read, pdm.write).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root span
	Job    string `json:"job,omitempty"`
	Blocks int    `json:"blocks,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a run in memory and writes them out as one
// JSON file when the run ends. A nil *tracer records nothing, so the
// untraced code path is the traced one with tracing off.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	parent atomic.Int64 // innermost open benchmark span: parent of backend samples
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.parent.Store(-1)
	return t
}

func (t *tracer) ns(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

// begin opens a span under the innermost open one and makes it the parent
// of backend samples until end. Only the single client goroutine opens
// spans, so the open spans form a stack.
func (t *tracer) begin(name, job string) int {
	if t == nil {
		return -1
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now, Parent: int(t.parent.Load()), Job: job})
	t.mu.Unlock()
	t.parent.Store(int64(id))
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	parent := t.spans[id].Parent
	t.mu.Unlock()
	t.parent.Store(int64(parent))
}

// add records a closed span with explicit bounds under parent.
func (t *tracer) add(name, job string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent, Job: job})
	t.mu.Unlock()
}

// observe is the pdm.OpObserver installed through pdm.InstrumentBackend.
// It runs on the engine's reader and writer goroutines and on the
// daemons' data-plane handlers; the sample is charged to the benchmark
// span open at that moment. Calls outside any span (dataset creation in
// set-up, output checks) are not recorded.
func (t *tracer) observe(s pdm.OpSample) {
	parent := int(t.parent.Load())
	if parent < 0 {
		return
	}
	name := "pdm.write"
	if strings.HasSuffix(s.Op, "read") {
		name = "pdm.read"
	}
	t.mu.Lock()
	job := t.spans[parent].Job
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: t.ns(s.Start), End: t.ns(s.End()),
		Parent: parent, Job: job, Blocks: s.Blocks})
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span of the run as one JSON file.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanIndex answers the per-layer questions over a finished run's spans.
type spanIndex struct {
	spans    []span
	children map[int][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int][]span)}
	for _, s := range spans {
		ix.children[s.Parent] = append(ix.children[s.Parent], s)
	}
	return ix
}

// named returns the spans called name, in recording order.
func (ix *spanIndex) named(name string) []span {
	var out []span
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// under returns the spans called name whose parent is id.
func (ix *spanIndex) under(id int, name string) []span {
	var out []span
	for _, s := range ix.children[id] {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the spans cover, counting time
// that overlapping spans share once.
func covered(spans []span, lo, hi int64) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curB = -1
	for _, v := range ivs {
		switch {
		case curB < 0:
			curA, curB = v.a, v.b
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if curB >= 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// busy sums the durations of spans, so concurrent calls count twice: the
// total time the layer was occupied, not the wall time it spanned.
func busy(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d
}
