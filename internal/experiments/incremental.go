package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// E16Row is one machine-readable point of the incremental-validation
// experiment (serialized into BENCH_incremental.json by dcbench).
type E16Row struct {
	Devices       int     `json:"devices"`
	Dirty         int     `json:"dirtyDevices"`
	DirtyFraction float64 `json:"dirtyFraction"`
	FullSweepNs   int64   `json:"fullSweepNs"`
	DeltaNs       int64   `json:"deltaNs"`
	Speedup       float64 `json:"speedup"`
	Verified      bool    `json:"verified"`
}

// e16Tables snapshots every device's converged table for the soundness
// gate.
func e16Tables(topo *topology.Topology) map[topology.DeviceID]string {
	s := bgp.NewSynth(topo, nil)
	out := make(map[topology.DeviceID]string, len(topo.Devices))
	for id := range topo.Devices {
		d := topology.DeviceID(id)
		tbl, err := s.Table(d)
		if err != nil {
			panic(err)
		}
		c := tbl.Clone()
		c.Sort()
		out[d] = fmt.Sprint(c.Entries)
	}
	return out
}

// E16Incremental measures steady-state incremental revalidation against
// the full sweep it replaces: after one leaf–spine link failure, the
// change journal bounds the blast radius to a few percent of the fleet,
// and delta revalidation of just those devices produces the same report
// an order of magnitude faster (single worker, comparable to E2's
// single-CPU sweep).
//
// Sizes at or below verifyMax devices also run the soundness gate: every
// device whose converged table actually changed must be inside the
// computed blast radius, and the spliced delta report must render byte
// for byte like a from-scratch full sweep — every device's contract
// count and violations, Elapsed aside. A violation panics, failing the
// bench-smoke CI target.
func E16Incremental(deviceCounts []int, verifyMax int) (Result, []E16Row) {
	var b strings.Builder
	var rows []E16Row
	fmt.Fprintf(&b, "%10s %8s %8s %12s %12s %9s %9s\n",
		"devices", "dirty", "dirty%", "fullsweep", "delta", "speedup", "verified")
	for _, n := range deviceCounts {
		p := SizedParams("e16", n)
		topo := topology.MustNew(p)
		facts := metadata.FromTopology(topo)
		v := rcdc.Validator{Workers: 1, Metrics: validatorMetrics()}

		// The baseline: a cold full sweep, as the monitor runs today.
		start := now()
		if _, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil)); err != nil {
			panic(err)
		}
		fullWall := since(start)

		// The monitor's steady state: a persistent generation-cached
		// source and a memoized contract generator, warmed by one sweep.
		cached := bgp.NewSynth(topo, nil)
		cached.EnableTableCache()
		cached.Metrics = synthMetrics()
		gen := contracts.NewGenerator(facts)
		gen.EnableMemo()
		prev, err := v.ValidateAll(facts, cached)
		if err != nil {
			panic(err)
		}

		verify := n <= verifyMax
		var before map[topology.DeviceID]string
		if verify {
			before = e16Tables(topo)
		}

		genBefore := topo.Generation()
		leaf := topo.ClusterLeaves(0)[0]
		var spine topology.DeviceID = -1
		for _, nb := range topo.Neighbors(leaf) {
			if topo.Device(nb).Role == topology.RoleSpine {
				spine = nb
				break
			}
		}
		if !topo.FailLink(leaf, spine) {
			panic("e16: FailLink failed")
		}

		// The incremental cycle: consume the journal, bound the blast,
		// revalidate only the dirty devices.
		start = now()
		changes, ok := topo.ChangesSince(genBefore)
		if !ok {
			panic("e16: journal truncated")
		}
		ds := delta.Compute(topo, changes, delta.Options{})
		if ds.Full() {
			panic("e16: expected a bounded blast radius for one leaf-spine failure")
		}
		cached.Refresh()
		rep, err := v.ValidateDelta(prev, facts, gen, cached, ds.Devices())
		if err != nil {
			panic(err)
		}
		deltaWall := since(start)

		if verify {
			after := e16Tables(topo)
			for id := range topo.Devices {
				d := topology.DeviceID(id)
				if before[d] != after[d] && !ds.Contains(d) {
					panic(fmt.Sprintf("e16: device %s table changed outside the blast radius (%d dirty of %d)",
						topo.Device(d).Name, ds.Count(), len(topo.Devices)))
				}
			}
			full, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
			if err != nil {
				panic(err)
			}
			if got, want := e19Render(rep), e19Render(full); !bytes.Equal(got, want) {
				panic(fmt.Sprintf("e16: delta report diverges from the full sweep at %d devices: %s",
					len(topo.Devices), firstLineDiff(got, want)))
			}
		}

		row := E16Row{
			Devices:       len(topo.Devices),
			Dirty:         ds.Count(),
			DirtyFraction: float64(ds.Count()) / float64(len(topo.Devices)),
			FullSweepNs:   fullWall.Nanoseconds(),
			DeltaNs:       deltaWall.Nanoseconds(),
			Speedup:       float64(fullWall) / float64(deltaWall),
			Verified:      verify,
		}
		rows = append(rows, row)
		fmt.Fprintf(&b, "%10d %8d %7.1f%% %12s %12s %8.1fx %9v\n",
			row.Devices, row.Dirty, 100*row.DirtyFraction,
			fullWall.Round(time.Millisecond), deltaWall.Round(time.Millisecond),
			row.Speedup, verify)
	}
	return Result{
		ID:    "E16",
		Title: "incremental revalidation after one link failure (change journal + blast radius)",
		Table: b.String(),
		Notes: "steady-state delta cycles revalidate only the blast radius of journaled changes; acceptance: ≤5% of devices dirty and ≥10x over the full sweep at ~2000 devices",
	}, rows
}

// firstLineDiff names the first line where two renderings differ.
func firstLineDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: delta %q, full %q", i+1, gl, wl)
		}
	}
	return "no differing line"
}
