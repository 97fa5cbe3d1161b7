package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/engine"
	"dcvalidate/internal/serve"
	"dcvalidate/internal/topology"
)

// The serving workload's open-loop schedule: reads at a fixed rate, a
// leaf–spine link flip every second (fail, then restore, alternating),
// issued in due order by one goroutine.
const (
	readsPerSecond = 200
	serveTraceSecs = 4 // traced phase: seconds of schedule replayed
	serveNamePool  = 64
	serveReachPool = 16
	// spinWindow is how long before a due time the generator stops
	// sleeping and polls the clock instead: a timer wakes up to a
	// millisecond late, which would otherwise dominate the latency of a
	// cached read.
	spinWindow = 2 * time.Millisecond
)

// event is one scheduled request.
type event struct {
	at     time.Duration // due offset from the schedule start
	method string
	target string
	kind   string // device, reach, summary or link
}

// serving is dcvalidated's handler driven in-process (no sockets) with
// the default trie engine.
type serving struct {
	cfg   config
	topo  *topology.Topology
	eng   *engine.Engine
	srv   *serve.Server
	names []string
	reach [][2]string
	links [][2]string

	// References: normalized answers (generation and cache flag removed)
	// for every pooled target, taken at set-up on the healthy fleet.
	baseline  map[string]string
	baseGen   uint64
	contracts int
}

func newServe(cfg config) *serving { return &serving{cfg: cfg} }

// build creates the engine and server over a fresh fleet and runs the
// warm-up reads that fill the report cache and the global snapshot.
func (w *serving) build(tr *tracer) (buildMS, factsMS float64, err error) {
	var topo *topology.Topology
	buildMS = tr.timed("topology.build", func() { topo, err = topology.New(fleetParams(w.cfg.tiny)) })
	if err != nil {
		return 0, 0, err
	}
	w.topo = topo
	w.eng = engine.New(topo, nil)
	w.srv = serve.New(w.eng)
	factsMS = tr.timed("metadata.facts", func() { w.eng.Facts() })
	for _, target := range []string{"/device?name=" + url.QueryEscape(w.pickNames()[0]), w.reachTarget(0), "/summary"} {
		if code, body, _ := w.do(nil, http.MethodGet, target); code != http.StatusOK {
			return 0, 0, fmt.Errorf("warm-up %s: %d %s", target, code, body)
		}
	}
	return buildMS, factsMS, nil
}

// pickNames draws the seeded device, reach and link pools; they depend
// only on the fleet shape and the seed.
func (w *serving) pickNames() []string {
	if w.names != nil {
		return w.names
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	t := w.topo
	for i := 0; i < serveNamePool; i++ {
		w.names = append(w.names, t.Devices[rng.Intn(len(t.Devices))].Name)
	}
	tors := t.ToRs()
	for i := 0; i < serveReachPool; i++ {
		src := t.Device(tors[rng.Intn(len(tors))])
		dst := t.Device(tors[rng.Intn(len(tors))])
		d := dst.Name
		if i%2 == 1 {
			d = dst.HostedPrefixes[0].String()
		}
		w.reach = append(w.reach, [2]string{src.Name, d})
	}
	w.links = linksBetween(t, topology.RoleLeaf, topology.RoleSpine)
	rng.Shuffle(len(w.links), func(i, j int) { w.links[i], w.links[j] = w.links[j], w.links[i] })
	return w.names
}

func (w *serving) reachTarget(i int) string {
	return "/reach?src=" + url.QueryEscape(w.reach[i][0]) + "&dst=" + url.QueryEscape(w.reach[i][1])
}

func (w *serving) setup() error {
	if _, _, err := w.build(newTracer()); err != nil {
		return err
	}
	w.baseGen = w.topo.Generation()
	w.baseline = map[string]string{}
	targets := []string{"/summary"}
	for _, n := range w.names {
		targets = append(targets, "/device?name="+url.QueryEscape(n))
	}
	for i := range w.reach {
		targets = append(targets, w.reachTarget(i))
	}
	for _, t := range targets {
		code, body, _ := w.do(nil, http.MethodGet, t)
		if code != http.StatusOK {
			return fmt.Errorf("baseline %s: %d %s", t, code, body)
		}
		norm, _, err := normalize(body)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", t, err)
		}
		w.baseline[t] = norm
	}
	var summary struct {
		Contracts int `json:"contracts"`
	}
	if err := json.Unmarshal([]byte(w.baseline["/summary"]), &summary); err != nil {
		return err
	}
	w.contracts = summary.Contracts
	return nil
}

// schedule returns the first seconds of the seeded schedule. Reads draw
// from the rng in due order, so a shorter schedule is a prefix of a
// longer one; link flips come in fail/restore pairs, so every schedule
// ends on the healthy fleet.
func (w *serving) schedule(seconds float64) []event {
	rng := rand.New(rand.NewSource(w.cfg.seed + 1))
	var evs []event
	n := int(seconds * readsPerSecond)
	gap := time.Second / readsPerSecond
	for i := 0; i < n; i++ {
		// The mix sits at fixed positions (one reach and one summary in
		// every 20 reads) so each flip meets the same sequence of read
		// kinds; only the targets are drawn.
		ev := event{at: time.Duration(i) * gap, method: http.MethodGet}
		switch i % 20 {
		case 7:
			ev.kind, ev.target = "reach", w.reachTarget(rng.Intn(len(w.reach)))
		case 17:
			ev.kind, ev.target = "summary", "/summary"
		default:
			ev.kind, ev.target = "device", "/device?name="+url.QueryEscape(w.names[rng.Intn(len(w.names))])
		}
		evs = append(evs, ev)
	}
	flips := 2 * (int(seconds) / 2)
	if flips == 0 {
		flips = 2
	}
	for j := 0; j < flips; j++ {
		l := w.links[(j/2)%len(w.links)]
		action := "fail"
		if j%2 == 1 {
			action = "restore"
		}
		evs = append(evs, event{
			at:     time.Duration(j)*time.Second + time.Second/2,
			method: http.MethodPost, kind: "link",
			target: "/link?a=" + url.QueryEscape(l[0]) + "&b=" + url.QueryEscape(l[1]) + "&action=" + action,
		})
	}
	// Reads due at the same instant as a flip go first.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// do serves one request in-process and returns its status, body and
// ServeHTTP time in ms. With a tracer, the ServeHTTP call counts into
// the runtime metrics; building the request does not.
func (w *serving) do(tr *tracer, method, target string) (int, []byte, float64) {
	req := httptest.NewRequest(method, target, nil)
	rec := httptest.NewRecorder()
	var ms float64
	tr.program(func() {
		sw := newStopwatch()
		w.srv.ServeHTTP(rec, req)
		ms = sw.ms()
	})
	return rec.Code, rec.Body.Bytes(), ms
}

// answerHead is the part of every answer the gates read directly.
type answerHead struct {
	Generation uint64 `json:"generation"`
	Cached     bool   `json:"cached"`
}

// normalize strips the generation and cache flag from a JSON answer and
// re-encodes it canonically.
func normalize(body []byte) (string, answerHead, error) {
	var head answerHead
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return "", head, err
	}
	if err := json.Unmarshal(body, &head); err != nil {
		return "", head, err
	}
	delete(m, "generation")
	delete(m, "cached")
	out, err := json.Marshal(m)
	return string(out), head, err
}

// serveStats is what one schedule run observed.
type serveStats struct {
	ph        *phase
	fresh     []float64
	late      []float64
	cached    map[string][]float64 // ServeHTTP ms of cached answers, by kind
	blockedMS float64              // ServeHTTP ms of answers with cached:false
	applyMS   float64              // ServeHTTP ms of link flips
	dirty     int
	computeMS float64
}

// readerState is what the serving gates remember across answers.
type readerState struct {
	lastGen uint64
}

// gate checks one answer: status 200, a JSON body, a generation that
// never goes back, and, for a read at a restored generation (an even
// number of flips after set-up), the baseline answer.
func (w *serving) gate(rs *readerState, ev event, code int, body []byte) (answerHead, error) {
	if code != http.StatusOK {
		return answerHead{}, fmt.Errorf("%s %s: status %d: %s", ev.method, ev.target, code, body)
	}
	norm, head, err := normalize(body)
	if err != nil {
		return head, fmt.Errorf("%s %s: %w", ev.method, ev.target, err)
	}
	if head.Generation < rs.lastGen {
		return head, fmt.Errorf("%s: generation went back from %d to %d", ev.target, rs.lastGen, head.Generation)
	}
	rs.lastGen = head.Generation
	if ev.kind != "link" && (head.Generation-w.baseGen)%2 == 0 && norm != w.baseline[ev.target] {
		return head, fmt.Errorf("%s at restored generation %d differs from the baseline", ev.target, head.Generation)
	}
	return head, nil
}

// runSchedule issues the events at their due times from this goroutine
// and checks every answer. With a tracer it also times each request as a
// span and, after each flip, times delta.Compute on the journal since the
// cached report's generation. Only the ServeHTTP calls count into the
// runtime metrics; that delta.Compute, the gates and the decoding of
// answers are the benchmark's own work.
func (w *serving) runSchedule(evs []event, tr *tracer) *serveStats {
	st := &serveStats{ph: &phase{}, cached: map[string][]float64{}}
	clk := clock.System{}
	rs := &readerState{lastGen: w.topo.Generation()}
	reportGen := rs.lastGen
	var pending uint64 // generation a flip returned, awaiting a fresh answer
	var pendingAt stopwatch
	start := clk.Now()
	for _, ev := range evs {
		due := start.Add(ev.at)
		if d := due.Sub(clk.Now()) - spinWindow; d > 0 {
			clock.Sleep(clk, d)
		}
		for clk.Now().Before(due) {
		}
		st.late = append(st.late, float64(clk.Now().Sub(due))/float64(time.Millisecond))
		var code int
		var body []byte
		var svc float64
		if tr != nil {
			tr.setOp(int(ev.at / time.Second))
			id := tr.begin("serve." + ev.kind)
			code, body, svc = w.do(tr, ev.method, ev.target)
			tr.end(id)
		} else {
			code, body, svc = w.do(nil, ev.method, ev.target)
		}
		latency := float64(clk.Now().Sub(due)) / float64(time.Millisecond)
		head, err := w.gate(rs, ev, code, body)
		st.ph.check(err)
		if ev.kind == "link" {
			st.applyMS += svc
			pending, pendingAt = head.Generation, newStopwatch()
			if tr != nil {
				w.traceDelta(tr, st, reportGen)
			}
			continue
		}
		st.ph.samples = append(st.ph.samples, latency)
		if err != nil {
			continue
		}
		if head.Cached {
			st.cached[ev.kind] = append(st.cached[ev.kind], svc)
		} else {
			st.blockedMS += svc
		}
		if ev.kind != "reach" {
			reportGen = head.Generation
			if pending != 0 && head.Generation >= pending {
				st.fresh = append(st.fresh, pendingAt.ms())
				pending = 0
			}
		}
	}
	return st
}

// traceDelta times the blast-radius computation the next read will make.
func (w *serving) traceDelta(tr *tracer, st *serveStats, reportGen uint64) {
	changes, ok := w.topo.ChangesSince(reportGen)
	if !ok {
		return
	}
	var ds *delta.Set
	st.computeMS += tr.timed("delta.compute", func() {
		ds = delta.Compute(w.topo, changes, delta.Options{UnboundedConfig: bgp.ConfigUnbounded(w.eng.Config())})
	})
	st.dirty += ds.Count()
}

// measure runs the schedule for seconds, but for at least the two
// seconds that hold one fail/restore pair with reads after each flip.
// op_ms_p50 carries fresh_ms_p50: it is the serving metric that holds
// the write path (the inline revalidation and snapshot rebuild a read
// waits for after a flip), and it is steady enough to bound.
func (w *serving) measure(seconds float64) *phase {
	st := w.runSchedule(w.schedule(max(seconds, 2)), nil)
	ph := st.ph
	ph.named = map[string]metric{
		"read_ms_p50":  {percentile(ph.samples, 50), "ms"},
		"read_ms_p99":  {percentile(ph.samples, 99), "ms"},
		"fresh_ms_p50": {percentile(st.fresh, 50), "ms"},
	}
	ph.op = "fresh_ms_p50"
	ph.extra = map[string]float64{
		"fresh_samples":       float64(len(st.fresh)),
		"loadgen_late_ms_p99": percentile(st.late, 99),
		"blocked_ms":          st.blockedMS,
	}
	return ph
}

func (w *serving) facts() map[string]any {
	return map[string]any{
		"devices":     len(w.topo.Devices),
		"contracts":   w.contracts,
		"reads_per_s": readsPerSecond,
		"read_mix":    "90% /device, 5% /reach, 5% /summary",
		"writes":      "POST /link leaf-spine fail/restore every 1 s",
		"name_pool":   len(w.names),
		"reach_pool":  len(w.reach),
	}
}

// traced replays the first serveTraceSecs seconds of the schedule on a
// fresh engine and server, reading the engine's own counters through
// Engine.Metrics().
func (w *serving) traced(tr *tracer, untracedP50 float64) (map[string]float64, error) {
	fresh := &serving{cfg: w.cfg, names: w.names, reach: w.reach, links: w.links,
		baseline: w.baseline}
	buildMS, factsMS, err := fresh.build(tr)
	if err != nil {
		return nil, err
	}
	fresh.baseGen = fresh.topo.Generation()
	reg := fresh.eng.Metrics()
	counters := []counter{
		{"bgp.cache_hits", "dcv_bgp_synth_cache_hits_total", ""},
		{"bgp.cache_misses", "dcv_bgp_synth_cache_misses_total", ""},
		{"engine.report_refreshes", "dcv_serve_sweeps_total", ""},
		{"engine.snapshot_rebuilds", "dcv_serve_snapshot_misses_total", ""},
	}
	before := readCounters(reg, counters)
	ls := startLayers(serveTraceSecs)
	st := fresh.runSchedule(fresh.schedule(serveTraceSecs), tr)
	if st.ph.failed > 0 {
		return nil, fmt.Errorf("traced schedule: %d failed answers: %v", st.ph.failed, st.ph.errs)
	}
	after := readCounters(reg, counters)
	for i, c := range counters {
		ls.perOp(c.layer, after[i]-before[i])
	}
	ls.m["topology.build_ms"] = buildMS
	ls.m["metadata.facts_ms"] = factsMS
	ls.perOp("engine.apply_ms", st.applyMS)
	ls.perOp("engine.blocked_ms", st.blockedMS)
	ls.perOp("delta.compute_ms", st.computeMS)
	ls.perOp("delta.dirty_devices", float64(st.dirty))
	ls.m["serve.device_ms_p50"] = percentile(st.cached["device"], 50)
	ls.m["serve.reach_ms_p50"] = percentile(st.cached["reach"], 50)
	ls.m["serve.summary_ms_p50"] = percentile(st.cached["summary"], 50)
	ls.m["loadgen.late_ms_p99"] = percentile(st.late, 99)
	return ls.finish(tr, percentile(st.ph.samples, 50), untracedP50), nil
}
