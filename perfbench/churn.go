package main

import (
	"fmt"
	"math/rand"

	"dcvalidate"
	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/engine"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/pec"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// churnTraceOps is both the traced phase's size and the least number of
// changes a measured phase makes: one link fail/restore and one session
// shut/restore.
const churnTraceOps = 4

var churnOpts = dcvalidate.ValidateOptions{Engine: dcvalidate.EnginePEC, Workers: 1}

// churn is the per-change revalidation workload: a seeded stream of
// ToR–leaf changes on a healthy fleet, each followed by ValidateDelta
// with the PEC engine on one worker.
type churn struct {
	cfg   config
	dc    *dcvalidate.Datacenter
	pairs [][2]string // seeded ToR–leaf links the stream walks through
	prev  *rcdc.Report

	// References: the pre-stream report digest, the first steps' digests
	// (the traced replay must reproduce them) and the end-of-run
	// from-scratch reference, a trie Validate of the same state.
	baseDigest  string
	stepDigests []string
	fullRef     func() (string, error)
	contracts   int
}

func newChurn(cfg config) *churn { return &churn{cfg: cfg} }

// change returns step k of the stream: on pair k/2, link fail, link
// restore, session shut, session restore, repeating. Steps -2 and -1 are
// the set-up's warm-up fail and restore on a pair the stream never uses.
func (w *churn) change(k int) engine.Change {
	kinds := [4]engine.ChangeKind{engine.FailLink, engine.RestoreLink, engine.ShutSession, engine.RestoreSession}
	if k < 0 {
		p := w.pairs[0]
		return engine.Change{Kind: kinds[k+2], A: p[0], B: p[1]}
	}
	p := w.pairs[1+(k/2)%(len(w.pairs)-1)]
	return engine.Change{Kind: kinds[k%4], A: p[0], B: p[1]}
}

// applyFacade makes change c through the public facade.
func applyFacade(dc *dcvalidate.Datacenter, c engine.Change) error {
	switch c.Kind {
	case engine.FailLink:
		return dc.FailLink(c.A, c.B)
	case engine.RestoreLink:
		return dc.RestoreLink(c.A, c.B)
	case engine.ShutSession:
		return dc.ShutSession(c.A, c.B)
	case engine.RestoreSession:
		return dc.RestoreSession(c.A, c.B)
	}
	return fmt.Errorf("unsupported change kind %d", c.Kind)
}

func (w *churn) setup() error {
	dc, err := dcvalidate.NewDatacenter(fleetParams(w.cfg.tiny))
	if err != nil {
		return err
	}
	w.dc = dc
	rng := rand.New(rand.NewSource(w.cfg.seed))
	w.pairs = linksBetween(dc.Topo, topology.RoleToR, topology.RoleLeaf)
	rng.Shuffle(len(w.pairs), func(i, j int) { w.pairs[i], w.pairs[j] = w.pairs[j], w.pairs[i] })
	w.fullRef = func() (string, error) {
		rep, err := dc.Validate(sweepOpts)
		if err != nil {
			return "", err
		}
		return reportDigest(rep), nil
	}
	rep, err := dc.ValidateDelta(nil, churnOpts)
	if err != nil {
		return err
	}
	w.prev = rep
	w.baseDigest = reportDigest(rep)
	w.contracts = rep.Checked
	// One fail/restore fills the delta path's caches (the contract memo
	// and the table cache entries a ToR–leaf flap rewrites).
	for k := -2; k < 0; k++ {
		if _, _, err := w.step(k); err != nil {
			return err
		}
	}
	if d := reportDigest(w.prev); d != w.baseDigest {
		return fmt.Errorf("warm-up restore digest %s, want baseline %s", d[:12], w.baseDigest[:12])
	}
	return nil
}

// step makes change k and revalidates, returning the time from the
// change call until ValidateDelta returned.
func (w *churn) step(k int) (float64, *rcdc.Report, error) {
	sw := newStopwatch()
	if err := applyFacade(w.dc, w.change(k)); err != nil {
		return sw.ms(), nil, err
	}
	rep, err := w.dc.ValidateDelta(w.prev, churnOpts)
	ms := sw.ms()
	if err != nil {
		return ms, nil, err
	}
	w.prev = rep
	return ms, rep, nil
}

// op is one measured step with its gate: after every restore the report
// must equal the pre-stream baseline.
func (w *churn) op(k int) (float64, error) {
	ms, rep, err := w.step(k)
	if err != nil {
		return ms, err
	}
	d := reportDigest(rep)
	if k < churnTraceOps {
		w.stepDigests = append(w.stepDigests, d)
	}
	if k%2 == 1 && d != w.baseDigest {
		return ms, fmt.Errorf("step %d (%v): restored digest %s, want baseline %s", k, w.change(k), d[:12], w.baseDigest[:12])
	}
	return ms, nil
}

func (w *churn) measure(seconds float64) *phase {
	ph := &phase{}
	start := newStopwatch()
	k := 0
	// Changes run in fail/restore pairs so the two cost modes (a failure
	// revalidates more than its restore) are sampled equally often.
	for k < churnTraceOps || start.ms() < seconds*1000 {
		for i := 0; i < 2; i++ {
			ms, err := w.op(k)
			ph.samples = append(ph.samples, ms)
			ph.check(err)
			k++
		}
	}
	ph.check(w.finalGate(k))
	ph.named = map[string]metric{"revalidate_ms_p50": {percentile(ph.samples, 50), "ms"}}
	ph.op = "revalidate_ms_p50"
	return ph
}

// finalGate makes one more (failing) change outside timing and requires
// the delta report to equal a from-scratch trie Validate of the same
// state.
func (w *churn) finalGate(k int) error {
	_, rep, err := w.step(k)
	if err != nil {
		return err
	}
	want, err := w.fullRef()
	if err != nil {
		return err
	}
	if d := reportDigest(rep); d != want {
		return fmt.Errorf("end of run: delta digest %s, from-scratch trie %s", d[:12], want[:12])
	}
	return nil
}

func (w *churn) facts() map[string]any {
	return map[string]any{
		"devices":   len(w.dc.Topo.Devices),
		"contracts": w.contracts,
		"stream":    fmt.Sprintf("ToR-leaf link fail/restore then session shut/restore over %d seeded links", len(w.pairs)),
	}
}

// traced rebuilds the fleet and replays the first churnTraceOps steps
// through the same public calls the engine's delta path makes
// (engine.validateDeltaLocked: Synth.Refresh, delta.Compute,
// pec.Checker.Invalidate, Validator.ValidateDelta), with the FIB source
// and the PEC checker wrapped. Each step's report must match the digest
// the facade produced for the same step. Only the steps count into the
// runtime metrics; the digests and the changed-device count are the
// benchmark's own work.
func (w *churn) traced(tr *tracer, untracedP50 float64) (map[string]float64, error) {
	if len(w.stepDigests) < churnTraceOps {
		return nil, fmt.Errorf("only %d facade step digests recorded", len(w.stepDigests))
	}
	var topo *topology.Topology
	var err error
	buildMS := tr.timed("topology.build", func() { topo, err = topology.New(fleetParams(w.cfg.tiny)) })
	if err != nil {
		return nil, err
	}
	var facts *metadata.Facts
	factsMS := tr.timed("metadata.facts", func() { facts = metadata.FromTopology(topo) })
	eng := engine.New(topo, nil)

	reg := obs.NewRegistry()
	synth := bgp.NewSynth(topo, eng.Config())
	synth.EnableTableCache()
	synth.Metrics = bgp.NewMetrics(reg)
	pc := &pec.Checker{Metrics: pec.NewMetrics(reg)}
	deltaM := delta.NewMetrics(reg)

	// The first full report, untraced: the engine's ValidateDelta(nil)
	// falls back to a full sweep over its table-cached source.
	prev, err := (&rcdc.Validator{Checker: pc, Workers: 1}).ValidateAll(facts, synth)
	if err != nil {
		return nil, err
	}
	prev.Generation = topo.Generation()
	if d := reportDigest(prev); d != w.baseDigest {
		return nil, fmt.Errorf("traced baseline digest %s, want %s", d[:12], w.baseDigest[:12])
	}
	counters := []counter{
		{"bgp.cache_hits", "dcv_bgp_synth_cache_hits_total", ""},
		{"bgp.cache_misses", "dcv_bgp_synth_cache_misses_total", ""},
		{"pec.shape_hits", "dcv_pec_shape_total", "hit"},
		{"pec.shape_builds", "dcv_pec_shape_total", "build"},
		{"pec.detaches", "dcv_pec_shape_detach_total", ""},
		{"pec.evictions", "dcv_pec_shape_evict_total", ""},
		{"pec.atomize_ms", "dcv_pec_atomize_seconds_sum", ""},
	}

	cgen := contracts.NewGenerator(facts)
	cgen.EnableMemo()
	src := tracedSource{synth, tr}
	v := rcdc.Validator{Checker: tracedChecker{pc, tr}, Workers: 1}
	// step mirrors engine.validateDeltaLocked for change k.
	step := func(k int) (rep *rcdc.Report, ds *delta.Set, err error) {
		tr.timed("engine.apply", func() { err = eng.Apply(w.change(k)) })
		if err != nil {
			return nil, nil, err
		}
		tr.timed("bgp.refresh", synth.Refresh)
		changes, ok := topo.ChangesSince(prev.Generation)
		if !ok {
			return nil, nil, fmt.Errorf("change journal truncated")
		}
		tr.timed("delta.compute", func() {
			ds = delta.Compute(topo, changes, delta.Options{
				UnboundedConfig: bgp.ConfigUnbounded(eng.Config()), Metrics: deltaM})
		})
		if ds.Full() {
			return nil, nil, fmt.Errorf("blast radius degraded to the whole fleet")
		}
		tr.timed("pec.invalidate", func() { pc.Invalidate(ds.Devices()) })
		gen := topo.Generation()
		id := tr.begin("rcdc.validate")
		rep, err = v.ValidateDelta(prev, facts, cgen, src, ds.Devices())
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		rep.Generation = gen
		prev = rep
		return rep, ds, nil
	}
	for k := -2; k < 0; k++ {
		if _, _, err := step(k); err != nil {
			return nil, fmt.Errorf("traced warm-up: %w", err)
		}
	}
	tr.reset()
	before := readCounters(reg, counters)
	ls := startLayers(churnTraceOps)
	ls.m["topology.build_ms"] = buildMS
	ls.m["metadata.facts_ms"] = factsMS

	var opMS []float64
	dirty, changed := 0, 0
	for k := 0; k < churnTraceOps; k++ {
		tr.setOp(k)
		last := prev
		var rep *rcdc.Report
		var ds *delta.Set
		var err error
		opMS = append(opMS, tr.timed("churn.change", func() {
			tr.program(func() { rep, ds, err = step(k) })
		}))
		if err != nil {
			return nil, fmt.Errorf("traced step %d: %w", k, err)
		}
		if d := reportDigest(rep); d != w.stepDigests[k] {
			return nil, fmt.Errorf("traced step %d digest %s, facade %s", k, d[:12], w.stepDigests[k][:12])
		}
		dirty += ds.Count()
		changed += changedDevices(last, rep, ds.Devices())
	}
	after := readCounters(reg, counters)
	for i, c := range counters {
		d := after[i] - before[i]
		if c.layer == "pec.atomize_ms" {
			d *= 1000
		}
		ls.perOp(c.layer, d)
	}
	ls.perOp("engine.apply_ms", tr.totalMS("engine.apply"))
	ls.perOp("delta.compute_ms", tr.totalMS("delta.compute"))
	ls.perOp("delta.dirty_devices", float64(dirty))
	if dirty > 0 {
		ls.m["delta.changed_ratio"] = float64(changed) / float64(dirty)
	}
	ls.perOp("bgp.table_ms", tr.totalMS("bgp.table"))
	ls.perOp("bgp.tables", tr.count("bgp.tables"))
	ls.perOp("bgp.entries", tr.count("bgp.entries"))
	ls.perOp("rcdc.check_ms", tr.totalMS("rcdc.check"))
	ls.perOp("rcdc.devices", tr.count("rcdc.devices"))
	ls.perOp("rcdc.violations", tr.count("rcdc.violations"))
	ls.perOp("rcdc.self_ms", tr.selfMS("rcdc.validate"))
	return ls.finish(tr, percentile(opMS, 50), untracedP50), nil
}

// changedDevices counts the dirty devices whose report content differs
// between prev and next.
func changedDevices(prev, next *rcdc.Report, dirty []topology.DeviceID) int {
	before := map[topology.DeviceID]string{}
	for i := range prev.Devices {
		before[prev.Devices[i].Device] = deviceDigest(&prev.Devices[i])
	}
	isDirty := map[topology.DeviceID]bool{}
	for _, d := range dirty {
		isDirty[d] = true
	}
	n := 0
	for i := range next.Devices {
		d := &next.Devices[i]
		if isDirty[d.Device] && before[d.Device] != deviceDigest(d) {
			n++
		}
	}
	return n
}
