package main

import (
	"fmt"
	"math/rand"
	"sort"

	"dcvalidate"
	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/engine"
	"dcvalidate/internal/experiments"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// fleetParams is the benchmark fleet: 2008 devices in 41 clusters, or a
// 28-device Clos fleet for the self-test. Every spine plane
// keeps at least two spines, so one failed leaf–spine link stays a local
// violation (the leaf and that spine) instead of isolating prefixes.
func fleetParams(tiny bool) topology.Params {
	if tiny {
		return topology.Params{Name: "bench", Clusters: 2, ToRsPerCluster: 4,
			LeavesPerCluster: 4, SpinesPerPlane: 2, RegionalSpines: 4,
			RSLinksPerSpine: 2, PrefixesPerToR: 1}
	}
	return experiments.SizedParams("bench", 2008)
}

// linksBetween returns, in link-ID order, the links joining a device of
// role a to a device of role b, as (a-side, b-side) name pairs.
func linksBetween(t *topology.Topology, a, b topology.Role) [][2]string {
	var out [][2]string
	for i := range t.Links {
		l := &t.Links[i]
		da, db := t.Device(l.A), t.Device(l.B)
		switch {
		case da.Role == a && db.Role == b:
			out = append(out, [2]string{da.Name, db.Name})
		case da.Role == b && db.Role == a:
			out = append(out, [2]string{db.Name, da.Name})
		}
	}
	return out
}

// sweepFaults are the sweep fleet's seeded faults (§2.6.2): one failed
// leaf–spine link, one failed spine–regional-spine link, and one
// administratively shut leaf–spine BGP session on another leaf.
type sweepFaults struct {
	leafSpine, spineRS, shut [2]string
}

func pickSweepFaults(t *topology.Topology, seed int64) sweepFaults {
	rng := rand.New(rand.NewSource(seed))
	ls := linksBetween(t, topology.RoleLeaf, topology.RoleSpine)
	sr := linksBetween(t, topology.RoleSpine, topology.RoleRegionalSpine)
	f := sweepFaults{leafSpine: ls[rng.Intn(len(ls))], spineRS: sr[rng.Intn(len(sr))]}
	f.shut = ls[rng.Intn(len(ls))]
	for f.shut[0] == f.leafSpine[0] { // the leaf faults sit on different leaves
		f.shut = ls[rng.Intn(len(ls))]
	}
	return f
}

// violators is the set of devices the faults must show up on, by
// construction of the contracts (§2.4). A dead leaf–spine link (failed,
// or its session shut) breaks the leaf's default contract and the
// spine's specific contracts for the leaf's cluster, which no other leaf
// of the plane serves to that spine. A failed spine–RS link breaks only
// the spine's default contract, since the regional spine keeps a subset
// of its next hops. Every other device stays clean because each plane
// has at least two spines and the two leaf faults are on different
// leaves, so no leaf loses all its spines.
func (f sweepFaults) violators() []string {
	set := map[string]bool{
		f.leafSpine[0]: true, f.leafSpine[1]: true,
		f.shut[0]: true, f.shut[1]: true,
		f.spineRS[0]: true,
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (f sweepFaults) changes() []engine.Change {
	return []engine.Change{
		{Kind: engine.FailLink, A: f.leafSpine[0], B: f.leafSpine[1]},
		{Kind: engine.FailLink, A: f.spineRS[0], B: f.spineRS[1]},
		{Kind: engine.ShutSession, A: f.shut[0], B: f.shut[1]},
	}
}

// sweep is the cold full-fleet validation workload: back-to-back
// Datacenter.Validate calls with the trie engine on one worker.
type sweep struct {
	cfg    config
	dc     *dcvalidate.Datacenter
	faults sweepFaults

	// References, fixed at set-up: the report digest of the warm-up sweep
	// and the violating devices by construction.
	wantDigest    string
	wantViolators []string
	contracts     int
}

func newSweep(cfg config) *sweep { return &sweep{cfg: cfg} }

var sweepOpts = dcvalidate.ValidateOptions{Engine: dcvalidate.EngineTrie, Workers: 1}

func (w *sweep) setup() error {
	dc, err := dcvalidate.NewDatacenter(fleetParams(w.cfg.tiny))
	if err != nil {
		return err
	}
	w.dc = dc
	w.faults = pickSweepFaults(dc.Topo, w.cfg.seed)
	for _, c := range w.faults.changes() {
		if err := applyFacade(dc, c); err != nil {
			return err
		}
	}
	w.wantViolators = w.faults.violators()
	rep, err := dc.Validate(sweepOpts)
	if err != nil {
		return err
	}
	w.wantDigest = reportDigest(rep)
	w.contracts = rep.Checked
	return nil
}

// gate checks one sweep report against the references.
func (w *sweep) gate(rep *rcdc.Report) error {
	if d := reportDigest(rep); d != w.wantDigest {
		return fmt.Errorf("sweep digest %s, want %s", d[:12], w.wantDigest[:12])
	}
	if got := violators(rep); !equalStrings(got, w.wantViolators) {
		return fmt.Errorf("violating devices %v, want the seeded faults' %v", got, w.wantViolators)
	}
	return nil
}

func (w *sweep) op() (float64, error) {
	clk := newStopwatch()
	rep, err := w.dc.Validate(sweepOpts)
	ms := clk.ms()
	if err != nil {
		return ms, err
	}
	return ms, w.gate(rep)
}

func (w *sweep) measure(seconds float64) *phase {
	ph := closedLoop(seconds, 1, func(int) (float64, error) { return w.op() })
	ph.named = map[string]metric{"sweep_ms_p50": {percentile(ph.samples, 50), "ms"}}
	ph.op = "sweep_ms_p50"
	return ph
}

func (w *sweep) facts() map[string]any {
	return map[string]any{
		"devices":   len(w.dc.Topo.Devices),
		"contracts": w.contracts,
		"faults": fmt.Sprintf("fail %s-%s, fail %s-%s, shut session %s-%s",
			w.faults.leafSpine[0], w.faults.leafSpine[1],
			w.faults.spineRS[0], w.faults.spineRS[1], w.faults.shut[0], w.faults.shut[1]),
	}
}

// sweepTraceOps is the traced phase's size: sweeps replayed.
const sweepTraceOps = 2

// traced rebuilds the fleet from scratch and replays the engine's full
// sweep (engine.validateLocked: a fresh Synth, a transient contract
// generator, one trie validator) with the FIB source and the checker
// wrapped, plus a separate contract-generation pass per sweep. Only the
// replayed sweep counts into the runtime metrics; the extra contract
// pass and the gate are the benchmark's own work.
func (w *sweep) traced(tr *tracer, untracedP50 float64) (map[string]float64, error) {
	var topo *topology.Topology
	var err error
	buildMS := tr.timed("topology.build", func() { topo, err = topology.New(fleetParams(w.cfg.tiny)) })
	if err != nil {
		return nil, err
	}
	eng := engine.New(topo, nil)
	for _, c := range w.faults.changes() {
		if err := eng.Apply(c); err != nil {
			return nil, err
		}
	}
	var facts *metadata.Facts
	factsMS := tr.timed("metadata.facts", func() { facts = metadata.FromTopology(topo) })

	ls := startLayers(sweepTraceOps)
	ls.m["topology.build_ms"] = buildMS
	ls.m["metadata.facts_ms"] = factsMS
	var opMS []float64
	count := 0
	for k := 0; k < sweepTraceOps; k++ {
		tr.setOp(k)
		tr.timed("contracts.gen", func() {
			gen := contracts.NewGenerator(facts)
			for i := range facts.Devices {
				count += len(gen.ForDevice(facts.Devices[i].ID).Contracts)
			}
		})
		var rep *rcdc.Report
		opMS = append(opMS, tr.timed("sweep", func() {
			tr.program(func() {
				src := tracedSource{bgp.NewSynth(topo, eng.Config()), tr}
				v := rcdc.Validator{Checker: tracedChecker{rcdc.TrieChecker{}, tr}, Workers: 1}
				id := tr.begin("rcdc.validate")
				rep, err = v.ValidateAll(facts, src)
				tr.end(id)
			})
		}))
		if err != nil {
			return nil, err
		}
		if err := w.gate(rep); err != nil {
			return nil, fmt.Errorf("traced sweep %d: %w", k, err)
		}
	}
	ls.perOp("contracts.gen_ms", tr.totalMS("contracts.gen"))
	ls.perOp("contracts.count", float64(count))
	ls.perOp("bgp.table_ms", tr.totalMS("bgp.table"))
	ls.perOp("bgp.tables", tr.count("bgp.tables"))
	ls.perOp("bgp.entries", tr.count("bgp.entries"))
	ls.perOp("rcdc.check_ms", tr.totalMS("rcdc.check"))
	ls.perOp("rcdc.devices", tr.count("rcdc.devices"))
	ls.perOp("rcdc.violations", tr.count("rcdc.violations"))
	ls.perOp("rcdc.self_ms", tr.selfMS("rcdc.validate"))
	return ls.finish(tr, percentile(opMS, 50), untracedP50), nil
}
