package delta_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/topology"
)

// multiSpine is a topology with SpinesPerPlane > 1, so single leaf–spine
// failures leave alternative plane paths and the blast radius can exclude
// ToRs.
func multiSpine(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
}

func changesAfter(t *testing.T, topo *topology.Topology, gen uint64) []topology.Change {
	t.Helper()
	cs, ok := topo.ChangesSince(gen)
	if !ok {
		t.Fatal("journal truncated unexpectedly")
	}
	return cs
}

func TestLeafSpineBlastExcludesToRsWithAlternatives(t *testing.T) {
	topo := multiSpine(t)
	leaf := topo.ClusterLeaves(0)[0]
	gen := topo.Generation()
	// Fail the link to one of the leaf's two plane spines.
	var spine topology.DeviceID = -1
	for _, n := range topo.Neighbors(leaf) {
		if topo.Device(n).Role == topology.RoleSpine {
			spine = n
			break
		}
	}
	if !topo.FailLink(leaf, spine) {
		t.Fatal("FailLink failed")
	}
	ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	if ds.Full() {
		t.Fatal("single leaf-spine failure should not degrade to full")
	}
	if !ds.Contains(leaf) || !ds.Contains(spine) {
		t.Fatal("endpoints must be dirty")
	}
	// The second plane spine still carries every route: no ToR is dirty.
	for _, tor := range topo.ToRs() {
		if ds.Contains(tor) {
			t.Fatalf("ToR %s dirty despite alternative spine", topo.Device(tor).Name)
		}
	}
	// All plane leaves are dirty (their via-spine ECMP sets mention the spine).
	for c := 0; c < topo.Params.Clusters; c++ {
		if l2 := topo.ClusterLeaves(c)[topo.Device(leaf).Plane]; !ds.Contains(l2) {
			t.Fatalf("plane leaf %s not dirty", topo.Device(l2).Name)
		}
	}
}

func TestSpineRSBlastIsTinyWithAlternatives(t *testing.T) {
	topo := multiSpine(t)
	spine := topo.Spines()[0]
	var rs topology.DeviceID = -1
	for _, n := range topo.Neighbors(spine) {
		if topo.Device(n).Role == topology.RoleRegionalSpine {
			rs = n
			break
		}
	}
	gen := topo.Generation()
	if !topo.FailLink(spine, rs) {
		t.Fatal("FailLink failed")
	}
	ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	if ds.Full() || ds.Count() != 2 || !ds.Contains(spine) || !ds.Contains(rs) {
		t.Fatalf("spine-RS blast = %v (full=%v), want exactly the endpoints",
			ds.Devices(), ds.Full())
	}
}

func TestToRLeafBlastCoversPlane(t *testing.T) {
	topo := multiSpine(t)
	tor := topo.ToRs()[0]
	leaf := topo.ClusterLeaves(0)[0]
	gen := topo.Generation()
	if !topo.FailLink(tor, leaf) {
		t.Fatal("FailLink failed")
	}
	ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	for _, d := range topo.ToRs() {
		if !ds.Contains(d) {
			t.Fatalf("ToR %s not dirty after ToR-leaf failure", topo.Device(d).Name)
		}
	}
	for _, d := range topo.RegionalSpines() {
		if !ds.Contains(d) {
			t.Fatalf("RS %s not dirty after ToR-leaf failure", topo.Device(d).Name)
		}
	}
	// The ToR is whole; everyone else is scoped to its prefixes.
	if _, scoped := ds.Scope(tor); scoped {
		t.Fatal("the failed link's ToR must be whole")
	}
	want := fmt.Sprint(topo.Device(tor).HostedPrefixes)
	for _, d := range ds.Devices() {
		if d == tor {
			continue
		}
		if ps, scoped := ds.Scope(d); !scoped || fmt.Sprint(ps) != want {
			t.Fatalf("device %s scope %v (scoped=%v), want %s", topo.Device(d).Name, ps, scoped, want)
		}
	}
	if ds.Scoped() != ds.Count()-1 {
		t.Fatalf("Scoped() = %d of %d, want all but the ToR", ds.Scoped(), ds.Count())
	}

	// Whole beats scoped: a leaf–spine change in the same window marks
	// the plane's leaves whole.
	topo.FailLink(leaf, topo.Spines()[0])
	both := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	if _, scoped := both.Scope(leaf); scoped {
		t.Fatal("a leaf–spine change must make the leaf whole despite the ToR–leaf scope")
	}
	if ps, scoped := both.Scope(topo.RegionalSpines()[len(topo.RegionalSpines())-1]); scoped && fmt.Sprint(ps) != want {
		t.Fatalf("RS scope %v, want %s", ps, want)
	}
}

// TestScopesUnite: two ToR–leaf changes in one window scope every other
// device to the union of both ToRs' prefixes, and both ToRs are whole.
func TestScopesUnite(t *testing.T) {
	topo := multiSpine(t)
	t0, t1 := topo.ToRs()[0], topo.ClusterToRs(1)[0]
	gen := topo.Generation()
	topo.FailLink(t0, topo.ClusterLeaves(0)[0])
	topo.ShutSession(t1, topo.ClusterLeaves(1)[0])
	ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	for _, tor := range []topology.DeviceID{t0, t1} {
		if _, scoped := ds.Scope(tor); scoped || !ds.Contains(tor) {
			t.Fatalf("ToR %s must be whole", topo.Device(tor).Name)
		}
	}
	want := map[ipnet.Prefix]bool{}
	for _, tor := range []topology.DeviceID{t0, t1} {
		for _, p := range topo.Device(tor).HostedPrefixes {
			want[p] = true
		}
	}
	ps, scoped := ds.Scope(topo.RegionalSpines()[0])
	if !scoped || len(ps) != len(want) {
		t.Fatalf("RS scope %v (scoped=%v), want the %d prefixes of both ToRs", ps, scoped, len(want))
	}
	for _, p := range ps {
		if !want[p] {
			t.Fatalf("RS scope %v holds %v, hosted by neither ToR", ps, p)
		}
	}
}

// TestMetricsCountScopesAndFallbacks: a bounded radius records its whole
// and scoped devices apart, and a truncated journal ticks the full
// fallback counter exactly once.
func TestMetricsCountScopesAndFallbacks(t *testing.T) {
	topo := multiSpine(t)
	reg := obs.NewRegistry()
	opts := delta.Options{Metrics: delta.NewMetrics(reg)}
	sample := func(name, label string) float64 {
		for _, s := range reg.Snapshot() {
			if s.Name == name && (label == "" || s.Labels["scope"] == label) {
				return s.Value
			}
		}
		return 0
	}
	gen := topo.Generation()
	topo.FailLink(topo.ToRs()[0], topo.ClusterLeaves(0)[0])
	ds := delta.Since(topo, gen, opts)
	if w, p := sample("dcv_delta_dirty_devices_total", "whole"), sample("dcv_delta_dirty_devices_total", "prefix"); w != 1 || p != float64(ds.Count()-1) {
		t.Fatalf("whole=%v prefix=%v, want 1 and %d", w, p, ds.Count()-1)
	}
	lid := topo.Links[0].ID
	for i := 0; i < 5000; i++ {
		topo.SetLinkUp(lid, i%2 == 1)
	}
	if !delta.Since(topo, gen, opts).Full() {
		t.Fatal("a truncated journal must give the whole-DC fallback")
	}
	if got := sample("dcv_delta_full_fallbacks_total", ""); got != 1 {
		t.Fatalf("dcv_delta_full_fallbacks_total = %v after one truncated-journal Since, want 1", got)
	}
}

func TestDeviceChangeAndUnboundedConfigFallBack(t *testing.T) {
	topo := multiSpine(t)
	gen := topo.Generation()
	topo.NoteDeviceChanged(topo.ToRs()[0])
	if ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{}); !ds.Full() {
		t.Fatal("ChangeDevice must degrade to full")
	}

	gen = topo.Generation()
	topo.FailLink(topo.ToRs()[0], topo.ClusterLeaves(0)[0])
	opts := delta.Options{UnboundedConfig: true}
	if ds := delta.Compute(topo, changesAfter(t, topo, gen), opts); !ds.Full() {
		t.Fatal("UnboundedConfig with link changes must degrade to full")
	}
}

func TestEmptyWindowIsEmpty(t *testing.T) {
	topo := multiSpine(t)
	ds := delta.Compute(topo, nil, delta.Options{})
	if ds.Full() || ds.Count() != 0 {
		t.Fatalf("empty change window must be empty, got %v full=%v", ds.Devices(), ds.Full())
	}
}

// TestSinceMatchesComputeAndFallsBack: Since is Compute over the
// journal window while the journal reaches back, and the whole-DC
// fallback once it no longer does.
func TestSinceMatchesComputeAndFallsBack(t *testing.T) {
	topo := multiSpine(t)
	gen := topo.Generation()
	if ds := delta.Since(topo, gen, delta.Options{}); ds.Full() || ds.Count() != 0 {
		t.Fatalf("unchanged generation: got %v full=%v, want empty", ds.Devices(), ds.Full())
	}
	topo.FailLink(topo.ClusterLeaves(0)[0], topo.Spines()[0])
	want := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	got := delta.Since(topo, gen, delta.Options{})
	if got.Full() || fmt.Sprint(got.Devices()) != fmt.Sprint(want.Devices()) {
		t.Fatalf("Since = %v full=%v, Compute = %v", got.Devices(), got.Full(), want.Devices())
	}

	// Flap one link until the journal drops gen's window.
	lid := topo.Links[0].ID
	for i := 0; i < 5000; i++ {
		topo.SetLinkUp(lid, i%2 == 1)
	}
	if _, ok := topo.ChangesSince(gen); ok {
		t.Fatal("journal still reaches back; the fallback is untested")
	}
	if !delta.Since(topo, gen, delta.Options{}).Full() {
		t.Fatal("a truncated journal must give the whole-DC fallback")
	}
}

// renderTables snapshots every device's converged table as a comparable
// string.
func renderTables(t *testing.T, topo *topology.Topology, cfg map[topology.DeviceID]*bgp.DeviceConfig) map[topology.DeviceID]string {
	t.Helper()
	s := bgp.NewSynth(topo, cfg)
	out := make(map[topology.DeviceID]string, len(topo.Devices))
	for id := range topo.Devices {
		d := topology.DeviceID(id)
		tbl, err := s.Table(d)
		if err != nil {
			t.Fatal(err)
		}
		c := tbl.Clone()
		c.Sort()
		out[d] = fmt.Sprint(c.Entries)
	}
	return out
}

// TestBlastRadiusIsSuperset is the soundness property: after any random
// sequence of link/session flips — applied to arbitrary (possibly already
// degraded) starting states — every device whose converged table changed
// is inside the computed blast radius, and on every device the radius
// scopes to a prefix set, every entry that was added, removed or
// rewritten lies inside the scope and the default entry is unchanged.
func TestBlastRadiusIsSuperset(t *testing.T) {
	paramSets := []topology.Params{
		topology.Figure3Params(), // SpinesPerPlane == 1: no alternatives
		{Clusters: 3, ToRsPerCluster: 2, LeavesPerCluster: 2,
			SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2, PrefixesPerToR: 1},
		{Clusters: 4, ToRsPerCluster: 2, LeavesPerCluster: 3,
			SpinesPerPlane: 3, RegionalSpines: 6, RSLinksPerSpine: 2, PrefixesPerToR: 1},
	}
	for pi, p := range paramSets {
		p := p
		t.Run(fmt.Sprintf("params%d", pi), func(t *testing.T) {
			topo := topology.MustNew(p)
			// A safe config knob on a few devices: ECMP truncation must not
			// break the bound (it only changes when the full set does).
			cfg := map[topology.DeviceID]*bgp.DeviceConfig{
				topo.ToRs()[0]:   {MaxECMPPaths: 1},
				topo.Leaves()[1]: {MaxECMPPaths: 2},
			}
			rng := rand.New(rand.NewSource(int64(42 + pi)))
			scopedSeen := 0
			for trial := 0; trial < 60; trial++ {
				before := renderTables(t, topo, cfg)
				beforeTbl := synthTables(t, topo, cfg)
				gen := topo.Generation()
				nflips := 1 + rng.Intn(4)
				for i := 0; i < nflips; i++ {
					lid := topology.LinkID(rng.Intn(len(topo.Links)))
					if rng.Intn(2) == 0 {
						topo.SetLinkUp(lid, rng.Intn(2) == 0)
					} else {
						topo.SetSessionUp(lid, rng.Intn(2) == 0)
					}
				}
				ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
				if ds.Full() {
					continue // trivially sound
				}
				after := renderTables(t, topo, cfg)
				for id := range topo.Devices {
					d := topology.DeviceID(id)
					if before[d] != after[d] && !ds.Contains(d) {
						cs, _ := topo.ChangesSince(gen)
						t.Fatalf("trial %d: device %s table changed outside blast radius\nchanges: %+v\nblast: %v\nbefore: %s\nafter: %s",
							trial, topo.Device(d).Name, cs, ds.Devices(), before[d], after[d])
					}
				}
				afterTbl := synthTables(t, topo, cfg)
				for _, d := range ds.Devices() {
					ps, scoped := ds.Scope(d)
					if !scoped {
						continue
					}
					scopedSeen++
					for _, p := range changedPrefixes(beforeTbl[d], afterTbl[d]) {
						if p.IsDefault() || !insideAny(p, ps) {
							cs, _ := topo.ChangesSince(gen)
							t.Fatalf("trial %d: device %s entry %v changed outside its scope %v\nchanges: %+v",
								trial, topo.Device(d).Name, p, ps, cs)
						}
					}
				}
			}
			if scopedSeen == 0 {
				t.Fatal("no trial produced a scoped device; the prefix-level check is untested")
			}
		})
	}
}

// synthTables pulls every device's converged table.
func synthTables(t *testing.T, topo *topology.Topology, cfg map[topology.DeviceID]*bgp.DeviceConfig) map[topology.DeviceID]*fib.Table {
	t.Helper()
	s := bgp.NewSynth(topo, cfg)
	out := make(map[topology.DeviceID]*fib.Table, len(topo.Devices))
	for id := range topo.Devices {
		tbl, err := s.Table(topology.DeviceID(id))
		if err != nil {
			t.Fatal(err)
		}
		out[topology.DeviceID(id)] = tbl
	}
	return out
}

// changedPrefixes returns the prefixes whose entry was added, removed or
// rewritten between two tables of one device.
func changedPrefixes(before, after *fib.Table) []ipnet.Prefix {
	index := func(t *fib.Table) map[ipnet.Prefix]string {
		m := make(map[ipnet.Prefix]string, len(t.Entries))
		for _, e := range t.Entries {
			m[e.Prefix] = fmt.Sprint(e.Connected, e.NextHops)
		}
		return m
	}
	b, a := index(before), index(after)
	var out []ipnet.Prefix
	for p, e := range b {
		if ae, ok := a[p]; !ok || ae != e {
			out = append(out, p)
		}
	}
	for p := range a {
		if _, ok := b[p]; !ok {
			out = append(out, p)
		}
	}
	return out
}

func insideAny(p ipnet.Prefix, ps []ipnet.Prefix) bool {
	for _, q := range ps {
		if q.ContainsPrefix(p) {
			return true
		}
	}
	return false
}
