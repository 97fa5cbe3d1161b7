package bgp

import (
	"fmt"
	"math/rand"
	"testing"

	"dcvalidate/internal/delta"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// TestRerunMatchesRun locks the warm-restart contract: after a topology
// mutation, Rerun from the previous converged state reaches exactly the
// fixpoint a from-scratch Run computes.
func TestRerunMatchesRun(t *testing.T) {
	p := topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	}
	warmTopo := topology.MustNew(p)
	warm := NewSim(warmTopo, nil)
	warm.Run()

	mutations := []func(*topology.Topology){
		func(tp *topology.Topology) { tp.FailLink(tp.ClusterLeaves(0)[0], tp.Spines()[0]) },
		func(tp *topology.Topology) { tp.ShutSession(tp.ToRs()[0], tp.ClusterLeaves(0)[0]) },
		func(tp *topology.Topology) { tp.FailLink(tp.Spines()[1], tp.RegionalSpines()[0]) },
		func(tp *topology.Topology) { tp.RestoreAll() },
	}
	coldTopo := topology.MustNew(p)
	for i, mutate := range mutations {
		mutate(warmTopo)
		mutate(coldTopo)
		warm.Rerun()
		cold := NewSim(coldTopo, nil)
		cold.Run()
		for id := range warmTopo.Devices {
			d := topology.DeviceID(id)
			wt, err := warm.Table(d)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := cold.Table(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := tablesEqual(wt, ct); err != nil {
				t.Fatalf("mutation %d: device %s: rerun table diverges from fresh run: %v",
					i, warmTopo.Device(d).Name, err)
			}
		}
	}
}

// TestRerunBeforeRunIsRun ensures Rerun on a virgin simulation behaves as
// a plain Run.
func TestRerunBeforeRunIsRun(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	s := NewSim(topo, nil)
	if rounds := s.Rerun(); rounds <= 0 {
		t.Fatalf("Rerun on virgin sim returned %d rounds", rounds)
	}
	if _, err := s.Table(topo.ToRs()[0]); err != nil {
		t.Fatalf("table after virgin Rerun: %v", err)
	}
}

// TestSynthTableCache locks the generation-keyed cache: hits return
// equal tables, topology changes evict exactly the dirty devices, and the
// cached copies survive caller mutation.
func TestSynthTableCache(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
	cached := NewSynth(topo, nil)
	cached.EnableTableCache()

	verify := func(label string) {
		t.Helper()
		fresh := NewSynth(topo, nil)
		for id := range topo.Devices {
			d := topology.DeviceID(id)
			ct, err := cached.Table(d)
			if err != nil {
				t.Fatal(err)
			}
			ft, err := fresh.Table(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := tablesEqual(ct, ft); err != nil {
				t.Fatalf("%s: device %s: cached table diverges: %v", label, topo.Device(d).Name, err)
			}
		}
	}
	verify("warm-up")

	// Mutating a returned table must not poison the cache.
	tor := topo.ToRs()[0]
	tbl, err := cached.Table(tor)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Entries) > 0 {
		tbl.Entries[0].NextHops = nil
		tbl.Entries = tbl.Entries[:0]
	}
	verify("after caller mutation")

	// A link failure evicts the dirty devices; the next Refresh+Table pass
	// must match a fresh synthesis of the degraded state.
	topo.FailLink(topo.ClusterLeaves(0)[0], topo.Spines()[0])
	cached.Refresh()
	verify("after link failure")

	topo.RestoreAll()
	cached.Refresh()
	verify("after restore")

	// A ChangeDevice journal entry clears the whole cache (conservative).
	topo.NoteDeviceChanged(tor)
	cached.Refresh()
	verify("after device change")
}

// TestSynthCachePatchMatchesFresh drives random change windows — link
// and session flips on all three link tiers, one to four per window —
// through a table-cached Synth over several fleets and ECMP configs.
// After every Refresh each cached table, patched in place or rebuilt,
// must equal a fresh NewSynth table entry for entry and in order, and
// TableOverlapping must equal the fresh table restricted to the same
// prefixes.
func TestSynthCachePatchMatchesFresh(t *testing.T) {
	paramSets := []topology.Params{
		topology.Figure3Params(),
		{Clusters: 3, ToRsPerCluster: 3, LeavesPerCluster: 2,
			SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2, PrefixesPerToR: 2},
		{Clusters: 4, ToRsPerCluster: 2, LeavesPerCluster: 3,
			SpinesPerPlane: 3, RegionalSpines: 6, RSLinksPerSpine: 2, PrefixesPerToR: 1},
	}
	for pi, p := range paramSets {
		for _, truncated := range []bool{false, true} {
			t.Run(fmt.Sprintf("params%d/maxecmp=%v", pi, truncated), func(t *testing.T) {
				topo := topology.MustNew(p)
				var cfg map[topology.DeviceID]*DeviceConfig
				if truncated {
					cfg = map[topology.DeviceID]*DeviceConfig{
						topo.ToRs()[0]:           {MaxECMPPaths: 1},
						topo.Leaves()[1]:         {MaxECMPPaths: 1},
						topo.RegionalSpines()[0]: {MaxECMPPaths: 2},
					}
				}
				rng := rand.New(rand.NewSource(int64(7 + pi)))
				cached := NewSynth(topo, cfg)
				cached.EnableTableCache()
				pullAll(t, cached, topo) // fill the cache
				patched := 0
				for window := 0; window < 40; window++ {
					gen := topo.Generation()
					for n := 1 + rng.Intn(4); n > 0; n-- {
						lid := topology.LinkID(rng.Intn(len(topo.Links)))
						if rng.Intn(2) == 0 {
							topo.SetLinkUp(lid, !topo.Links[lid].Up)
						} else {
							topo.SetSessionUp(lid, !topo.Links[lid].SessionUp)
						}
					}
					ds := delta.Since(topo, gen, delta.Options{})
					patched += ds.Scoped()
					cached.Refresh()
					fresh := NewSynth(topo, cfg)
					for id := range topo.Devices {
						d := topology.DeviceID(id)
						want, err := fresh.Table(d)
						if err != nil {
							t.Fatal(err)
						}
						got, err := cached.Table(d)
						if err != nil {
							t.Fatal(err)
						}
						if a, b := fmt.Sprint(got.Entries), fmt.Sprint(want.Entries); a != b {
							t.Fatalf("window %d: device %s: cached table\n%s\nfresh table\n%s",
								window, topo.Device(d).Name, a, b)
						}
						ps, _ := ds.Scope(d)
						if ps == nil {
							hp := topo.HostedPrefixes()
							ps = []ipnet.Prefix{hp[rng.Intn(len(hp))].Prefix}
						}
						ov, err := cached.TableOverlapping(d, ps)
						if err != nil {
							t.Fatal(err)
						}
						if a, b := fmt.Sprint(ov.Entries), fmt.Sprint(want.Overlapping(ps).Entries); a != b {
							t.Fatalf("window %d: device %s: TableOverlapping(%v)\n%s\nwant\n%s",
								window, topo.Device(d).Name, ps, a, b)
						}
					}
				}
				if patched == 0 {
					t.Fatal("no window scoped a device; patching is untested")
				}
			})
		}
	}
}

func pullAll(t *testing.T, s *Synth, topo *topology.Topology) {
	t.Helper()
	for id := range topo.Devices {
		if _, err := s.Table(topology.DeviceID(id)); err != nil {
			t.Fatal(err)
		}
	}
}
