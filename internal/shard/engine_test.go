package shard_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/engine"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/shard"
	"dcvalidate/internal/topology"
)

// The shard-equivalence contract: with sharding enabled, the engine's
// delta path — ValidateDelta and the serving refresh — runs its device
// sets on the coordinator, and the results render byte-identically to a
// from-scratch single-engine sweep. The coordinator holds no report of
// its own, so these tests drive it through the engine; they live in an
// external test package because engine imports shard.

var (
	shardParams  = shard.TestParams
	renderReport = shard.RenderReport
)

// groundTruth is a from-scratch single-engine full sweep.
func groundTruth(t *testing.T, topo *topology.Topology) *rcdc.Report {
	t.Helper()
	v := rcdc.Validator{Workers: 2}
	rep, err := v.ValidateAll(metadata.FromTopology(topo), bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// renderViolations renders a flat violation list, the byte surface of
// the serving refresh.
func renderViolations(vs []rcdc.Violation) []byte {
	var buf bytes.Buffer
	for _, v := range vs {
		fmt.Fprintf(&buf, "%s\n", v.String())
	}
	return buf.Bytes()
}

// sample returns the first series named name whose labels match the
// given key/value pairs, or 0.
func sample(r *obs.Registry, name string, labels ...string) float64 {
	for _, s := range r.Snapshot() {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s.Value
		}
	}
	return 0
}

// shardChunks sums the chunks the coordinator has executed, over all
// shards.
func shardChunks(r *obs.Registry) float64 {
	n := 0.0
	for _, s := range r.Snapshot() {
		if s.Name == "dcv_shard_partial_seconds_count" {
			n += s.Value
		}
	}
	return n
}

// TestSweepEquivalence: a sharded ValidateDelta renders byte-identically
// to a single-engine full sweep, for every shard width, healthy (the
// full fallback) and after a link failure (a delta run).
func TestSweepEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		topo := topology.MustNew(shardParams())
		e := engine.New(topo, nil)
		reg := e.Metrics()
		e.EnableSharding(n)
		want := renderReport(groundTruth(t, topo))
		rep, err := e.ValidateDelta(nil, engine.Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := renderReport(rep); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: sharded sweep diverged from single engine\n--- sharded ---\n%s--- single ---\n%s", n, got, want)
		}
		if shardChunks(reg) == 0 {
			t.Fatalf("n=%d: the full sweep ran nothing on the coordinator", n)
		}
		// Degrade and revalidate (delta path).
		topo.FailLink(topo.ClusterToRs(0)[0], topo.ClusterLeaves(0)[0])
		rep2, err := e.ValidateDelta(rep, engine.Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rep2.Failures == 0 {
			t.Fatalf("n=%d: no violations after link failure", n)
		}
		if got := renderReport(rep2); !bytes.Equal(got, renderReport(groundTruth(t, topo))) {
			t.Fatalf("n=%d: delta sweep diverged from single engine", n)
		}
	}
}

// TestSweepCached: at an unchanged generation the serving refresh is a
// cache hit and a ValidateDelta from the current report plans an empty
// set — neither runs a chunk on the coordinator — and both answer with
// the report of the one sharded sweep.
func TestSweepCached(t *testing.T) {
	topo := topology.MustNew(shardParams())
	e := engine.New(topo, nil)
	reg := e.Metrics()
	e.EnableSharding(2)
	vs1, gen1, err := e.QueryViolations()
	if err != nil {
		t.Fatal(err)
	}
	chunks := shardChunks(reg)
	if chunks == 0 {
		t.Fatal("the first refresh ran nothing on the coordinator")
	}
	vs2, gen2, err := e.QueryViolations()
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != gen1 || !bytes.Equal(renderViolations(vs2), renderViolations(vs1)) {
		t.Fatal("repeat refresh did not answer from the cached report")
	}
	rep, err := e.ValidateDelta(nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunks = shardChunks(reg)
	rep2, err := e.ValidateDelta(rep, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderReport(rep2), renderReport(rep)) || rep2.Generation != gen1 {
		t.Fatal("ValidateDelta at an unchanged generation changed the report")
	}
	if d := shardChunks(reg) - chunks; d != 0 {
		t.Fatalf("ValidateDelta at an unchanged generation ran %v chunk(s) on the coordinator", d)
	}
	hits := sample(reg, "dcv_serve_cache_hits_total")
	sweeps := sample(reg, "dcv_serve_sweeps_total", "mode", "sharded")
	if hits != 1 || sweeps != 1 {
		t.Fatalf("serving hits=%v sharded sweeps=%v, want 1/1", hits, sweeps)
	}
}

// TestShardProperty is the 40-step randomized equivalence property:
// mutations interleaved with sharded ValidateDelta runs and serving
// refreshes, compared byte-for-byte against a from-scratch single-engine
// sweep at every step, for N ∈ {1, 2, 5} simultaneously. A step that
// leaves the generation unchanged must run nothing on the coordinator:
// ValidateDelta plans an empty set and the serving refresh is a cache
// hit.
func TestShardProperty(t *testing.T) {
	topo := topology.MustNew(shardParams())
	rng := rand.New(rand.NewSource(42))
	widths := []int{1, 2, 5}
	engs := map[int]*engine.Engine{}
	regs := map[int]*obs.Registry{}
	prev := map[int]*rcdc.Report{}
	for _, n := range widths {
		engs[n] = engine.New(topo, nil)
		regs[n] = engs[n].Metrics()
		engs[n].EnableSharding(n)
	}
	links := len(topo.Links)
	lastGen := ^uint64(0)
	idle := 0
	for step := 0; step < 40; step++ {
		l := topology.LinkID(rng.Intn(links))
		switch op := rng.Intn(6); op {
		case 0:
			topo.SetLinkUp(l, false)
		case 1:
			topo.SetLinkUp(l, true)
		case 2:
			topo.SetSessionUp(l, false)
		case 3:
			topo.SetSessionUp(l, true)
		case 4:
			topo.RestoreAll()
		case 5:
			// No mutation: this step exercises the cached path.
		}
		gen := topo.Generation()
		unchanged := gen == lastGen
		if unchanged {
			idle++
		}
		lastGen = gen
		truth := groundTruth(t, topo)
		want := renderReport(truth)
		for _, n := range widths {
			chunks := shardChunks(regs[n])
			sweeps := sample(regs[n], "dcv_serve_sweeps_total", "mode", "sharded")
			rep, err := engs[n].ValidateDelta(prev[n], engine.Options{})
			if err != nil {
				t.Fatalf("step %d n=%d: %v", step, n, err)
			}
			prev[n] = rep
			if rep.Generation != gen {
				t.Fatalf("step %d n=%d: report generation %d, topology %d", step, n, rep.Generation, gen)
			}
			if got := renderReport(rep); !bytes.Equal(got, want) {
				t.Fatalf("step %d n=%d: sharded ValidateDelta diverged from single engine\n--- sharded ---\n%s--- single ---\n%s",
					step, n, got, want)
			}
			vs, vgen, err := engs[n].QueryViolations()
			if err != nil {
				t.Fatalf("step %d n=%d: %v", step, n, err)
			}
			if vgen != gen || !bytes.Equal(renderViolations(vs), renderViolations(truth.Violations())) {
				t.Fatalf("step %d n=%d: sharded serving refresh at generation %d diverged from single engine at %d",
					step, n, vgen, gen)
			}
			if unchanged {
				if d := shardChunks(regs[n]) - chunks; d != 0 {
					t.Fatalf("step %d n=%d: unchanged generation ran %v chunk(s) on the coordinator", step, n, d)
				}
				if d := sample(regs[n], "dcv_serve_sweeps_total", "mode", "sharded") - sweeps; d != 0 {
					t.Fatalf("step %d n=%d: unchanged generation ran %v serving sweep(s)", step, n, d)
				}
			}
		}
	}
	if idle == 0 {
		t.Fatal("no step left the generation unchanged; the cached path is untested")
	}
}
