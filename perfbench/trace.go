package main

import (
	"sync"
	"time"

	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// perLayer lists every per-layer metric a traced run prints, in the
// order of BENCHMARK.json. Sums are per operation of the traced phase
// (one sweep, one change, one second of the serving schedule, one ACL);
// a layer a workload never enters reports 0.
var perLayer = []struct{ name, unit string }{
	{"topology.build_ms", "ms"},
	{"metadata.facts_ms", "ms"},
	{"contracts.gen_ms", "ms"},
	{"contracts.count", "count"},
	{"bgp.table_ms", "ms"},
	{"bgp.tables", "count"},
	{"bgp.entries", "count"},
	{"bgp.cache_hits", "count"},
	{"bgp.cache_misses", "count"},
	{"rcdc.check_ms", "ms"},
	{"rcdc.devices", "count"},
	{"rcdc.violations", "count"},
	{"rcdc.self_ms", "ms"},
	{"delta.compute_ms", "ms"},
	{"delta.dirty_devices", "count"},
	{"delta.changed_ratio", "ratio"},
	{"pec.shape_hits", "count"},
	{"pec.shape_builds", "count"},
	{"pec.detaches", "count"},
	{"pec.evictions", "count"},
	{"pec.atomize_ms", "ms"},
	{"engine.apply_ms", "ms"},
	{"engine.report_refreshes", "count"},
	{"engine.snapshot_rebuilds", "count"},
	{"engine.blocked_ms", "ms"},
	{"serve.device_ms_p50", "ms"},
	{"serve.reach_ms_p50", "ms"},
	{"serve.summary_ms_p50", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"acl.parse_ms", "ms"},
	{"acl.rules", "count"},
	{"secguru.check_ms", "ms"},
	{"secguru.contracts", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started; Parent is the index of the enclosing span
// (-1 at the top) and Op the operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans and counts in memory for one traced phase. Calls
// nest strictly (every traced call site runs one operation at a time,
// validators with one worker), so the open spans form a stack even when
// a validator's worker goroutine makes the inner calls.
type tracer struct {
	mu     sync.Mutex
	clk    clock.Clock
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	counts map[string]float64
	// heap bytes allocated inside program calls (see program)
	programAlloc float64
}

func newTracer() *tracer {
	clk := clock.System{}
	return &tracer{clk: clk, t0: clk.Now(), counts: map[string]float64{}}
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.stack, t.counts = nil, nil, map[string]float64{}
	t.programAlloc = 0
	t.mu.Unlock()
}

func (t *tracer) setOp(op int) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int {
	now := clock.Since(t.clk, t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	now := clock.Since(t.clk, t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.stack = t.stack[:len(t.stack)-1]
	return float64(now-t.spans[id].Start) / 1e6
}

// timed runs f inside a span and returns the span's duration in ms.
func (t *tracer) timed(name string, f func()) float64 {
	id := t.begin(name)
	f()
	return t.end(id)
}

// program runs f, a call into the program, and adds the heap bytes
// allocated across it to the phase's program total. The benchmark's own
// work (references, digests, decoding answers) runs outside program and
// so stays out of runtime.alloc_mb and runtime.gc_cpu_ms. On a nil
// tracer program just runs f.
func (t *tracer) program(f func()) {
	if t == nil {
		f()
		return
	}
	a0, _ := runtimeCounters()
	f()
	a1, _ := runtimeCounters()
	t.mu.Lock()
	t.programAlloc += a1 - a0
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// count returns the running total of a counted quantity.
func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// totalMS sums the durations of the spans called name.
func (t *tracer) totalMS(name string) float64 {
	return sum(t.durations(name))
}

// durations returns the duration in ms of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMS sums, over the spans called name, each span's duration minus
// the durations of its direct children.
func (t *tracer) selfMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[int]int64{}
	for i, s := range t.spans {
		if s.Name == name {
			self[i] += s.End - s.Start
		}
		if s.Parent >= 0 && t.spans[s.Parent].Name == name {
			self[s.Parent] -= s.End - s.Start
		}
	}
	var ns int64
	for _, v := range self {
		ns += v
	}
	return float64(ns) / 1e6
}

// tracedSource wraps a fib.Source, timing every table pull.
type tracedSource struct {
	fib.Source
	tr *tracer
}

func (s tracedSource) Table(d topology.DeviceID) (*fib.Table, error) {
	id := s.tr.begin("bgp.table")
	t, err := s.Source.Table(d)
	s.tr.end(id)
	if err == nil {
		s.tr.add("bgp.tables", 1)
		s.tr.add("bgp.entries", float64(len(t.Entries)))
	}
	return t, err
}

// tracedChecker wraps an rcdc.Checker, timing every device check.
type tracedChecker struct {
	rcdc.Checker
	tr *tracer
}

func (c tracedChecker) CheckDevice(tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) ([]rcdc.Violation, error) {
	id := c.tr.begin("rcdc.check")
	v, err := c.Checker.CheckDevice(tbl, dc, role)
	c.tr.end(id)
	c.tr.add("rcdc.devices", 1)
	c.tr.add("rcdc.violations", float64(len(v)))
	return v, err
}

// counter names a program metric family, optionally narrowed to one
// result label, that a traced phase reads before and after its
// operations.
type counter struct{ layer, family, result string }

// readCounters reads each counter's current value: the sum of the
// family's samples whose result label matches.
func readCounters(reg *obs.Registry, cs []counter) []float64 {
	out := make([]float64, len(cs))
	snap := reg.Snapshot()
	for i, c := range cs {
		for _, s := range snap {
			if s.Name == c.family && (c.result == "" || s.Labels["result"] == c.result) {
				out[i] += s.Value
			}
		}
	}
	return out
}

// layerSet collects one traced phase's per-layer values.
type layerSet struct {
	m      map[string]float64
	ops    int
	alloc0 float64
	gc0    float64
}

// startLayers opens a traced phase of ops operations, starting the
// phase-wide runtime counters.
func startLayers(ops int) *layerSet {
	a, g := runtimeCounters()
	return &layerSet{m: map[string]float64{}, ops: ops, alloc0: a, gc0: g}
}

// perOp records a phase total as a per-operation value.
func (l *layerSet) perOp(name string, total float64) {
	l.m[name] = total / float64(l.ops)
}

// finish records the program's runtime costs and the tracing overhead,
// and returns the values. runtime.alloc_mb is what tr counted inside
// program calls. The runtime books a GC cycle's CPU time only when the
// cycle ends, wherever that falls, so runtime.gc_cpu_ms is the phase's
// GC CPU apportioned by the program's share of the phase's allocation,
// the work that paces the collector.
func (l *layerSet) finish(tr *tracer, tracedP50, untracedP50 float64) map[string]float64 {
	a, g := runtimeCounters()
	tr.mu.Lock()
	prog := tr.programAlloc
	tr.mu.Unlock()
	share := 0.0
	if total := a - l.alloc0; total > 0 {
		share = min(prog/total, 1)
	}
	l.m["runtime.alloc_mb"] = prog / float64(l.ops) / (1 << 20)
	l.m["runtime.gc_cpu_ms"] = (g - l.gc0) * 1000 * share / float64(l.ops)
	if untracedP50 > 0 {
		l.m["trace.overhead_pct"] = (tracedP50/untracedP50 - 1) * 100
	}
	return l.m
}
