package rcdc

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/topology"
)

// reportsEquivalent compares two reports ignoring timing fields.
func reportsEquivalent(t *testing.T, got, want *Report) {
	t.Helper()
	if got.Checked != want.Checked || got.Failures != want.Failures {
		t.Fatalf("totals differ: checked %d/%d failures %d/%d",
			got.Checked, want.Checked, got.Failures, want.Failures)
	}
	if len(got.Devices) != len(want.Devices) {
		t.Fatalf("device counts differ: %d vs %d", len(got.Devices), len(want.Devices))
	}
	for i := range got.Devices {
		g, w := got.Devices[i], want.Devices[i]
		if g.Device != w.Device || g.Name != w.Name || g.Role != w.Role ||
			g.Contracts != w.Contracts || len(g.Violations) != len(w.Violations) {
			t.Fatalf("device %d differs:\n got %+v\nwant %+v", i, g, w)
		}
		for j := range g.Violations {
			if g.Violations[j].String() != w.Violations[j].String() {
				t.Fatalf("device %d violation %d differs: %s vs %s",
					i, j, g.Violations[j], w.Violations[j])
			}
		}
	}
}

func TestValidateAllReturnsPartialReportOnError(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	bad := topo.ToRs()[1]
	src := failingSource{inner: bgp.NewSynth(topo, nil), bad: bad}
	v := Validator{Workers: 4}
	rep, err := v.ValidateAll(facts, src)
	if err == nil || !errors.Is(err, errPull) {
		t.Fatalf("err = %v, want wrapped errPull", err)
	}
	if rep == nil {
		t.Fatal("partial report must be returned alongside the error")
	}
	if got, want := len(rep.Devices), len(topo.Devices)-1; got != want {
		t.Fatalf("partial report covers %d devices, want %d", got, want)
	}
	for _, dr := range rep.Devices {
		if dr.Device == bad {
			t.Fatal("failed device must not appear in the partial report")
		}
	}
}

func TestValidateDeltaMatchesFullSweep(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
	facts := metadata.FromTopology(topo)
	v := Validator{Workers: 2}
	prev, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}

	gen := topo.Generation()
	topo.FailLink(topo.ClusterLeaves(0)[0], topo.Spines()[0])
	changes, ok := topo.ChangesSince(gen)
	if !ok {
		t.Fatal("journal truncated")
	}
	ds := delta.Compute(topo, changes, delta.Options{})
	if ds.Full() {
		t.Fatal("expected a bounded blast radius")
	}

	src := bgp.NewSynth(topo, nil)
	got, err := v.ValidateDelta(prev, facts, nil, src, ds.Devices())
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	reportsEquivalent(t, got, want)
}

func TestValidateDeltaRequiresPrev(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	v := Validator{Workers: 1}
	if _, err := v.ValidateDelta(nil, facts, nil, bgp.NewSynth(topo, nil), nil); err == nil {
		t.Fatal("nil prev must error")
	}
}

func TestValidateDeltaKeepsPrevResultOnError(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	v := Validator{Workers: 2}
	prev, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	bad := topo.ToRs()[0]
	src := failingSource{inner: bgp.NewSynth(topo, nil), bad: bad}
	gen := contracts.NewGenerator(facts)
	rep, err := v.ValidateDelta(prev, facts, gen, src, []topology.DeviceID{bad})
	if err == nil || !errors.Is(err, errPull) {
		t.Fatalf("err = %v, want wrapped errPull", err)
	}
	if len(rep.Devices) != len(prev.Devices) {
		t.Fatalf("report covers %d devices, want %d", len(rep.Devices), len(prev.Devices))
	}
	found := false
	for _, dr := range rep.Devices {
		if dr.Device == bad {
			found = true
		}
	}
	if !found {
		t.Fatal("failed dirty device must keep its previous result")
	}
}

// overlapless hides a source's TableOverlapping, so scoped checks take
// the pull-whole-then-restrict path.
type overlapless struct{ inner fib.Source }

func (s overlapless) Table(d topology.DeviceID) (*fib.Table, error) { return s.inner.Table(d) }

// TestValidateScopedMatchesFullSweep drives a stream of ToR–leaf link
// and session flips, mixed with leaf–spine and spine–RS flips, from a
// degraded start (so scoped devices carry violations outside their scope
// that the splice must keep in place) through ValidateScoped with the
// blast radius's (device, prefix) scopes, and requires every step to
// match a from-scratch sweep — through the source's own TableOverlapping
// and through the generic restrict-after-pull path alike.
func TestValidateScopedMatchesFullSweep(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 3, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	})
	facts := metadata.FromTopology(topo)
	topo.FailLink(topo.ClusterLeaves(1)[1], topo.Spines()[2])
	topo.FailLink(topo.Spines()[0], topo.Neighbors(topo.Spines()[0])[len(topo.Neighbors(topo.Spines()[0]))-1])
	v := Validator{Workers: 2}
	prev, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	var torLeaf, other []topology.LinkID
	for i := range topo.Links {
		l := &topo.Links[i]
		if topo.Device(l.A).Role == topology.RoleToR || topo.Device(l.B).Role == topology.RoleToR {
			torLeaf = append(torLeaf, l.ID)
		} else {
			other = append(other, l.ID)
		}
	}
	rng := rand.New(rand.NewSource(3))
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()
	scopedSeen := 0
	for step := 0; step < 40; step++ {
		g := topo.Generation()
		for n := 1 + rng.Intn(2); n > 0; n-- {
			lid := torLeaf[rng.Intn(len(torLeaf))]
			if rng.Intn(5) == 0 {
				lid = other[rng.Intn(len(other))]
			}
			if rng.Intn(2) == 0 {
				topo.SetLinkUp(lid, !topo.Links[lid].Up)
			} else {
				topo.SetSessionUp(lid, !topo.Links[lid].SessionUp)
			}
		}
		ds := delta.Since(topo, g, delta.Options{})
		var work []Scope
		for _, d := range ds.Devices() {
			ps, _ := ds.Scope(d)
			work = append(work, Scope{Device: d, Prefixes: ps})
		}
		scopedSeen += ds.Scoped()
		var src fib.Source = bgp.NewSynth(topo, nil)
		if step%2 == 1 {
			src = overlapless{src}
		}
		got, err := v.ValidateScoped(prev, facts, gen, src, work)
		if err != nil {
			t.Fatal(err)
		}
		want, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
		if err != nil {
			t.Fatal(err)
		}
		reportsEquivalent(t, got, want)
		prev = got
	}
	if scopedSeen == 0 || prev.Failures == 0 {
		t.Fatalf("scoped devices %d, final failures %d: the stream never exercised the splice", scopedSeen, prev.Failures)
	}
}

// TestSpliceScopedKeepsContractOrder: a rechecked contract's fresh
// violations land between the kept violations of the contracts around
// it, even when identical contracts before and after it both fail.
func TestSpliceScopedKeepsContractOrder(t *testing.T) {
	p1, p2 := ipnet.MustParsePrefix("10.0.1.0/24"), ipnet.MustParsePrefix("10.0.2.0/24")
	a := contracts.Contract{Device: 1, Kind: contracts.Specific, Prefix: p1, NextHops: []topology.DeviceID{7}}
	b := contracts.Contract{Device: 1, Kind: contracts.Specific, Prefix: p2, NextHops: []topology.DeviceID{7}}
	dc := contracts.DeviceContracts{Device: 1, Contracts: []contracts.Contract{a, b, a}}
	va := Violation{Device: 1, Contract: a, Kind: MissingRoute}
	vbOld := Violation{Device: 1, Contract: b, Kind: MissingRoute}
	vbNew := Violation{Device: 1, Contract: b, Kind: WrongNextHops, Unexpected: []topology.DeviceID{9}}
	got := SpliceScoped([]Violation{va, vbOld, va}, []Violation{vbNew}, []ipnet.Prefix{p2},
		func() contracts.DeviceContracts { return dc })
	want := []Violation{va, vbNew, va}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("spliced %v, want %v", got, want)
	}
}
