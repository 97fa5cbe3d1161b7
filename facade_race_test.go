package dcvalidate_test

import (
	"sync"
	"testing"

	"dcvalidate"
)

// TestFacadeConcurrentUse pins the facade's thread-safety contract:
// validations and serving-cache queries proceed concurrently with
// topology and configuration mutations without data races. The test is
// meaningful under -race (make test-race and the CI race job run it);
// without -race it still exercises the lock ordering for deadlocks.
func TestFacadeConcurrentUse(t *testing.T) {
	dc, err := dcvalidate.NewDatacenter(dcvalidate.TopologyParams{
		Clusters: 2, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dc.Metrics() // instrument, so counters race-test too

	tor := dc.Topo.Device(dc.Topo.ClusterToRs(0)[0]).Name
	leaf := dc.Topo.Device(dc.Topo.ClusterLeaves(0)[0]).Name
	remote := dc.Topo.Device(dc.Topo.ClusterToRs(1)[0]).Name

	const iters = 20
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f(i)
			}
		}()
	}

	// Mutators: link flaps and config edits.
	run(func(i int) {
		if i%2 == 0 {
			if err := dc.FailLink(tor, leaf); err != nil {
				t.Error(err)
			}
		} else if err := dc.RestoreLink(tor, leaf); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if err := dc.SetDeviceConfig(leaf, nil); err != nil {
			t.Error(err)
		}
	})
	// Full and incremental validations.
	run(func(i int) {
		if _, err := dc.Validate(dcvalidate.ValidateOptions{Workers: 2}); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if _, err := dc.ValidateDelta(nil, dcvalidate.ValidateOptions{Workers: 2}); err != nil {
			t.Error(err)
		}
	})
	// Serving-cache queries of every kind.
	run(func(i int) {
		if _, err := dc.QueryDevice(tor); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if _, err := dc.QueryReach(tor, remote); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if _, err := dc.Summary(); err != nil {
			t.Error(err)
		}
		if _, _, err := dc.QueryViolations(); err != nil {
			t.Error(err)
		}
	})
	// Resharding mid-flight.
	run(func(i int) {
		switch i % 4 {
		case 0:
			dc.EnableSharding(2)
		case 2:
			dc.DisableSharding()
		default:
			dc.Shards()
		}
	})
	wg.Wait()

	// The facade must still converge to a consistent healthy state.
	if err := dc.RestoreLink(tor, leaf); err != nil {
		t.Fatal(err)
	}
	dc.Topo.RestoreAll()
	s, err := dc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Violating != 0 {
		t.Fatalf("restored fleet still violating: %+v", s)
	}
}

// TestQueryReachConcurrentCached pins that cached reachability queries
// are read-only: after one warming query, concurrent QueryReach calls
// answer under the engine's read lock from the same global snapshot,
// whose per-device FIB tries are built lazily on first lookup. Under
// -race this fails if that lazy build is an unsynchronized write.
func TestQueryReachConcurrentCached(t *testing.T) {
	dc, err := dcvalidate.NewDatacenter(dcvalidate.TopologyParams{
		Clusters: 2, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tors := dc.Topo.ToRs()
	name := func(i int) string { return dc.Topo.Device(tors[i%len(tors)]).Name }
	if _, err := dc.QueryReach(name(0), name(len(tors)-1)); err != nil {
		t.Fatal(err)
	}
	// Every goroutine walks every ToR pair, so several of them hit each
	// not-yet-looked-up table.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range tors {
				for j := range tors {
					src, dst := name(i+g), name(j+g)
					if src == dst {
						continue
					}
					ans, err := dc.QueryReach(src, dst)
					if err != nil {
						t.Error(err)
						return
					}
					if !ans.Cached || !ans.Reaches {
						t.Errorf("%s → %s: cached=%v reaches=%v, want both", src, dst, ans.Cached, ans.Reaches)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
