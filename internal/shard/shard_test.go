package shard

import (
	"bytes"
	"fmt"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

func testParams() topology.Params {
	return topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
		PrefixesPerToR: 1,
	}
}

// renderReport renders the semantic content of a report, excluding
// timing and worker counts — the byte-identity surface of the
// shard-equivalence contract.
func renderReport(rep *rcdc.Report) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "checked=%d failures=%d\n", rep.Checked, rep.Failures)
	for i := range rep.Devices {
		d := &rep.Devices[i]
		fmt.Fprintf(&buf, "dev=%d name=%s role=%s contracts=%d\n", d.Device, d.Name, d.Role, d.Contracts)
		for _, v := range d.Violations {
			fmt.Fprintf(&buf, "  %s\n", v.String())
		}
	}
	return buf.Bytes()
}

func TestRingDeterministicAndComplete(t *testing.T) {
	r := NewRing(5)
	if r.Shards() != 5 {
		t.Fatalf("Shards() = %d", r.Shards())
	}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("pod-%d", i)
		s := r.Shard(key)
		if s < 0 || s >= 5 {
			t.Fatalf("key %s → shard %d out of range", key, s)
		}
		if s2 := r.Shard(key); s2 != s {
			t.Fatalf("key %s unstable: %d then %d", key, s, s2)
		}
		seen[s] = true
	}
	if len(seen) != 5 {
		t.Fatalf("1000 keys landed on only %d/5 shards", len(seen))
	}
	// A clamped ring still works.
	if NewRing(0).Shard("x") != 0 {
		t.Fatal("single-shard ring must map everything to shard 0")
	}
}

// TestRingSpreadsPods: structural keys that differ only in their index
// spread over the shards instead of piling onto one arc of the ring.
func TestRingSpreadsPods(t *testing.T) {
	for _, n := range []int{2, 3} {
		r := NewRing(n)
		used := map[int]bool{}
		for c := 0; c < 6; c++ {
			used[r.Shard(fmt.Sprintf("pod-%d", c))] = true
		}
		if len(used) != n {
			t.Fatalf("6 pods landed on %d of %d shards", len(used), n)
		}
	}
}

func TestDequeOrder(t *testing.T) {
	d := &deque{}
	for i := 0; i < 3; i++ {
		d.push(chunk{owner: i})
	}
	if c, ok := d.popBottom(); !ok || c.owner != 2 {
		t.Fatalf("popBottom = %+v, want owner 2 (LIFO)", c)
	}
	if c, ok := d.stealTop(); !ok || c.owner != 0 {
		t.Fatalf("stealTop = %+v, want owner 0 (FIFO)", c)
	}
	if c, ok := d.popBottom(); !ok || c.owner != 1 {
		t.Fatalf("popBottom = %+v, want owner 1", c)
	}
	if _, ok := d.popBottom(); ok {
		t.Fatal("empty deque popped")
	}
	if _, ok := d.stealTop(); ok {
		t.Fatal("empty deque stolen from")
	}
}

func TestChunked(t *testing.T) {
	devs := make([]topology.DeviceID, 37)
	for i := range devs {
		devs[i] = topology.DeviceID(i)
	}
	chunks := chunked(4, rcdc.WholeDevices(devs))
	if len(chunks) != 3 {
		t.Fatalf("37 devices → %d chunks, want 3", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		if c.owner != 4 {
			t.Fatalf("owner = %d, want 4", c.owner)
		}
		total += len(c.work)
	}
	if total != 37 {
		t.Fatalf("chunks cover %d devices, want 37", total)
	}
	if chunked(0, nil) != nil {
		t.Fatal("empty device list must produce no chunks")
	}
}

// TestPartitionCoversFleet: every device lands on exactly one shard, and
// pod-mates land together.
func TestPartitionCoversFleet(t *testing.T) {
	topo := topology.MustNew(testParams())
	c := New(topo, nil, 3, Options{})
	owner := make(map[topology.DeviceID]int)
	for s := 0; s < c.Shards(); s++ {
		for _, id := range c.Devices(s) {
			if prev, dup := owner[id]; dup {
				t.Fatalf("device %d on shards %d and %d", id, prev, s)
			}
			owner[id] = s
		}
	}
	if len(owner) != len(topo.Devices) {
		t.Fatalf("assigned %d devices, fleet has %d", len(owner), len(topo.Devices))
	}
	podShard := map[string]int{}
	for i := range topo.Devices {
		d := &topo.Devices[i]
		key := PartitionKey(d)
		if s, ok := podShard[key]; ok && s != owner[d.ID] {
			t.Fatalf("partition key %s split across shards %d and %d", key, s, owner[d.ID])
		}
		podShard[key] = owner[d.ID]
	}
}

// TestRunMatchesValidator: the coordinator runs exactly the device set
// it is handed — a subset or the whole fleet, healthy or degraded — and
// returns the same per-device reports, in the same order, as the
// validator's own worker pool over a fresh source.
func TestRunMatchesValidator(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		topo := topology.MustNew(testParams())
		reg := obs.NewRegistry()
		c := New(topo, nil, n, Options{Metrics: NewMetrics(reg)})
		facts := metadata.FromTopology(topo)
		gen := contracts.NewGenerator(facts)
		gen.EnableMemo()
		all := make([]topology.DeviceID, len(topo.Devices))
		for i := range all {
			all[i] = topology.DeviceID(i)
		}
		subset := []topology.DeviceID{all[1], all[5], all[len(all)-1]}
		for step, devs := range [][]topology.DeviceID{all, subset, all} {
			if step == 2 {
				topo.FailLink(topo.ClusterToRs(0)[0], topo.ClusterLeaves(0)[0])
			}
			pool := &rcdc.Validator{Workers: 2}
			want, wantErrs := pool.ValidateDelta(&rcdc.Report{}, facts, gen, bgp.NewSynth(topo, nil), devs)
			if wantErrs != nil {
				t.Fatal(wantErrs)
			}
			got, errs := c.Run(&rcdc.Validator{}, facts, gen, rcdc.WholeDevices(devs))
			if len(errs) > 0 {
				t.Fatalf("n=%d step %d: %v", n, step, errs)
			}
			if b := renderReport(&rcdc.Report{Devices: got}); !bytes.Equal(b, renderReport(&rcdc.Report{Devices: want.Devices})) {
				t.Fatalf("n=%d step %d: coordinator run diverged from the validator pool\n--- coordinator ---\n%s--- pool ---\n%s",
					n, step, b, renderReport(want))
			}
		}
		chunks := 0.0
		for _, s := range reg.Snapshot() {
			if s.Name == "dcv_shard_partial_seconds_count" {
				chunks += s.Value
			}
		}
		if chunks == 0 {
			t.Fatalf("n=%d: no chunk observed in dcv_shard_partial_seconds", n)
		}
		if got, _ := c.Run(&rcdc.Validator{}, facts, gen, nil); got != nil {
			t.Fatalf("n=%d: empty device set produced %d reports", n, len(got))
		}
	}
}
