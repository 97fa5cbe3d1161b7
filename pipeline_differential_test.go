package dcvalidate

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dcvalidate/internal/monitor"
)

// The cross-pipeline differential: one seeded stream of link and session
// fail/restore steps is applied to three identical datacenters, and
// after every step each validation pipeline must name the same
// violations on the same devices:
//
//   - engine ValidateDelta, unsharded;
//   - engine ValidateDelta with two validator shards, and the same
//     engine's serving refresh (QueryViolations);
//   - a monitor instance with journal-driven incremental cycles, read
//     through Analytics.UnhealthyInCycle;
//   - a from-scratch trie Validate, the reference.
//
// The two engine reports must also render byte-identically to the
// reference: they share the verdict semantics down to witness details.

func pipelineParams() TopologyParams {
	return TopologyParams{
		Name: "pipe", Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
		PrefixesPerToR: 1,
	}
}

// recordSigs reduces a monitor cycle's unhealthy records to the
// violationSigs surface.
func recordSigs(recs []monitor.Record) map[string]int {
	sigs := make(map[string]int)
	for _, r := range recs {
		for _, v := range r.Violations {
			sigs[fmt.Sprintf("%d|%v|%v", v.Device, v.Contract.Prefix, v.Kind)]++
		}
	}
	return sigs
}

// flatSigs reduces a flat violation list to the violationSigs surface.
func flatSigs(vs []Violation) map[string]int {
	sigs := make(map[string]int)
	for _, v := range vs {
		sigs[fmt.Sprintf("%d|%v|%v", v.Device, v.Contract.Prefix, v.Kind)]++
	}
	return sigs
}

func TestCrossPipelineDifferential(t *testing.T) {
	newDC := func() *Datacenter {
		dc, err := NewDatacenter(pipelineParams())
		if err != nil {
			t.Fatal(err)
		}
		return dc
	}
	uns, shd, ref := newDC(), newDC(), newDC()
	shd.EnableSharding(2)
	mon := ref.NewMonitor("pipe-0")
	mon.Workers = 2
	mon.Incremental = true
	dcs := []*Datacenter{uns, shd, ref}

	rng := rand.New(rand.NewSource(1913))
	links := ref.Topo.Links
	opts := ValidateOptions{Workers: 2}
	type fault struct {
		a, b    string
		session bool
	}
	var down []fault
	var prevU, prevS *Report
	violating, healthy := 0, 0
	for step := 0; step < 30; step++ {
		if step > 0 {
			// Fail a random link or session, or restore one failed
			// earlier, so the stream both breaks and heals the fleet.
			var f fault
			restore := len(down) > 0 && rng.Intn(2) == 0
			if restore {
				i := rng.Intn(len(down))
				f = down[i]
				down = append(down[:i], down[i+1:]...)
			} else {
				l := links[rng.Intn(len(links))]
				f = fault{ref.Topo.Device(l.A).Name, ref.Topo.Device(l.B).Name, rng.Intn(2) == 0}
				down = append(down, f)
			}
			for _, dc := range dcs {
				var err error
				switch {
				case f.session && restore:
					err = dc.RestoreSession(f.a, f.b)
				case f.session:
					err = dc.ShutSession(f.a, f.b)
				case restore:
					err = dc.RestoreLink(f.a, f.b)
				default:
					err = dc.FailLink(f.a, f.b)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}

		want, err := ref.Validate(ValidateOptions{Workers: 2})
		if err != nil {
			t.Fatalf("step %d: reference: %v", step, err)
		}
		wantSigs := violationSigs(want)

		repU, err := uns.ValidateDelta(prevU, opts)
		if err != nil {
			t.Fatalf("step %d: unsharded ValidateDelta: %v", step, err)
		}
		repS, err := shd.ValidateDelta(prevS, opts)
		if err != nil {
			t.Fatalf("step %d: sharded ValidateDelta: %v", step, err)
		}
		prevU, prevS = repU, repS
		served, _, err := shd.QueryViolations()
		if err != nil {
			t.Fatalf("step %d: sharded serving refresh: %v", step, err)
		}
		stats, err := mon.RunCycle()
		if err != nil {
			t.Fatalf("step %d: monitor: %v", step, err)
		}
		if len(stats.Errs) > 0 {
			t.Fatalf("step %d: monitor cycle errors: %v", step, stats.Err())
		}

		for _, c := range []struct {
			name string
			sigs map[string]int
		}{
			{"unsharded ValidateDelta", violationSigs(repU)},
			{"sharded ValidateDelta", violationSigs(repS)},
			{"sharded serving refresh", flatSigs(served)},
			{"incremental monitor", recordSigs(mon.Analytics.UnhealthyInCycle(stats.Cycle))},
		} {
			if !sameSigs(c.sigs, wantSigs) {
				t.Fatalf("step %d: %s names %d violation signature(s), reference %d\n got: %v\nwant: %v",
					step, c.name, len(c.sigs), len(wantSigs), c.sigs, wantSigs)
			}
		}
		for i, rep := range []*Report{repU, repS} {
			if got := renderMatrixReport(rep); !bytes.Equal(got, renderMatrixReport(want)) {
				t.Fatalf("step %d: %s ValidateDelta diverges from the reference\n--- delta ---\n%s--- reference ---\n%s",
					step, [...]string{"unsharded", "sharded"}[i], got, renderMatrixReport(want))
			}
		}
		if len(wantSigs) > 0 {
			violating++
		} else if step > 0 {
			healthy++
		}
	}
	// The stream must both produce and clear violations, or the
	// comparison above shows little.
	t.Logf("%d violating, %d healed", violating, healthy)
	if violating == 0 || healthy == 0 {
		t.Fatalf("%d violating and %d healthy steps: the stream must produce both", violating, healthy)
	}
}
