// Package contracts implements the device contract generator of §2.4: the
// automatic derivation of per-device forwarding intent from architectural
// metadata. A local forwarding contract names a destination prefix and the
// exact set of ECMP next hops every packet matching that prefix must be
// forwarded to. Contracts come in two kinds:
//
//   - A specific contract covers one hosted VLAN prefix and requires a
//     non-default route with exactly the expected next hops. Packets that
//     would fall through to the default route violate it — this is what
//     flags the missing specific announcements in the §2.6.2 migration
//     incident even though default routing still delivered the traffic.
//
//   - A default contract covers 0.0.0.0/0, i.e. the complement of all
//     specific prefixes, and requires the device's default route to carry
//     exactly the expected (fully redundant) uplink set.
//
// Contracts are generated from the expected topology recorded in the
// metadata service and deliberately ignore current link state (§2.4):
// correctness must hold across state fluctuations, and deviations are
// exactly what RCDC is built to flag.
package contracts

import (
	"sort"
	"sync"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/topology"
)

// Kind distinguishes default from specific contracts.
type Kind uint8

const (
	// Specific contracts state expectations for concrete hosted prefixes.
	Specific Kind = iota
	// Default contracts state expectations for the default route.
	Default
)

func (k Kind) String() string {
	if k == Default {
		return "default"
	}
	return "specific"
}

// Contract is a local forwarding contract for one device (§2.4).
type Contract struct {
	Device   topology.DeviceID
	Kind     Kind
	Prefix   ipnet.Prefix // 0.0.0.0/0 for default contracts
	NextHops []topology.DeviceID
}

// DeviceContracts bundles every contract of one device.
type DeviceContracts struct {
	Device    topology.DeviceID
	Contracts []Contract
}

// Scoped returns the part of dc a check scoped to ps rechecks — its
// specific contracts whose prefix overlaps one of ps, in order — and
// their prefixes, which the check's table pull must cover.
// Generator.ForDeviceScoped returns the same for a generated set
// without building it.
func (dc *DeviceContracts) Scoped(ps []ipnet.Prefix) (DeviceContracts, []ipnet.Prefix) {
	sub := DeviceContracts{Device: dc.Device}
	var cps []ipnet.Prefix
	for _, c := range dc.Contracts {
		if c.Kind == Specific && c.Prefix.OverlapsAny(ps) {
			sub.Contracts = append(sub.Contracts, c)
			cps = append(cps, c.Prefix)
		}
	}
	return sub, cps
}

// Generator derives contracts from metadata facts.
type Generator struct {
	facts *metadata.Facts

	// Opt-in per-device memoization keyed on the facts' intent generation:
	// intent edits invalidate, link-state changes do not (facts never see
	// them). Off by default — the full-sweep paths generate transiently so
	// memory stays O(one device); long-lived incremental generators enable
	// it to amortize repeated ForDevice calls on the same dirty devices.
	mu      sync.Mutex
	memo    map[topology.DeviceID]DeviceContracts
	memoGen uint64

	// sortedAt is the facts generation plus one at which sorted — the
	// facts' prefixes ascend and are pairwise disjoint, so
	// ForDeviceScoped can binary-search them — was last worked out; 0
	// means never.
	sortedAt uint64
	sorted   bool
}

// NewGenerator returns a contract generator over the given facts snapshot.
func NewGenerator(f *metadata.Facts) *Generator {
	return &Generator{facts: f}
}

// EnableMemo turns on per-device memoization of ForDevice results. Safe
// for concurrent ForDevice callers. Memory grows to one contract set per
// distinct device generated since the last intent change.
func (g *Generator) EnableMemo() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.memo = make(map[topology.DeviceID]DeviceContracts)
	g.memoGen = g.facts.Generation()
}

// ForDevice generates the comprehensive contract set for one device,
// implementing the rules of §2.4.1 (ToR), §2.4.2 (leaf), §2.4.3 (spine),
// plus the regional-spine specific contracts §2.4.4 relies on.
//
// Next-hop slices are sorted once and shared between the contracts that
// expect the same set (a ToR expects its leaves for every prefix); treat
// Contract.NextHops as immutable. With memoization enabled the whole
// DeviceContracts value is shared across calls under the same invariant.
func (g *Generator) ForDevice(id topology.DeviceID) DeviceContracts {
	if g.memo != nil {
		g.mu.Lock()
		if gen := g.facts.Generation(); gen != g.memoGen {
			g.memo = make(map[topology.DeviceID]DeviceContracts)
			g.memoGen = gen
		}
		if dc, ok := g.memo[id]; ok {
			g.mu.Unlock()
			return dc
		}
		g.mu.Unlock()
		dc := g.generate(id)
		g.mu.Lock()
		g.memo[id] = dc
		g.mu.Unlock()
		return dc
	}
	return g.generate(id)
}

// ForDeviceScoped returns what ForDevice(id).Scoped(ps) returns — the
// device's specific contracts whose prefix overlaps one of ps, in order,
// and their prefixes — generating only those contracts, in
// O(|ps| log prefixes) after the device's next-hop sets. It neither
// reads nor fills the memo, so a scoped check never builds a device's
// full set.
func (g *Generator) ForDeviceScoped(id topology.DeviceID, ps []ipnet.Prefix) (DeviceContracts, []ipnet.Prefix) {
	r := g.rulesFor(id)
	sub := DeviceContracts{Device: id}
	var cps []ipnet.Prefix
	for _, i := range g.overlappingPrefixes(ps) {
		if c, ok := r.specific(g.facts.Prefixes[i]); ok && len(c.NextHops) > 0 {
			sub.Contracts = append(sub.Contracts, c)
			cps = append(cps, c.Prefix)
		}
	}
	return sub, cps
}

// overlappingPrefixes returns, in ascending order, the indices of the
// facts' prefixes that overlap one of ps.
func (g *Generator) overlappingPrefixes(ps []ipnet.Prefix) []int {
	pfx := g.facts.Prefixes
	at := func(i int) ipnet.Prefix { return pfx[i].Prefix }
	g.mu.Lock()
	if gen := g.facts.Generation() + 1; g.sortedAt != gen {
		g.sorted = ipnet.SortedDisjoint(len(pfx), at)
		g.sortedAt = gen
	}
	sorted := g.sorted
	g.mu.Unlock()
	return ipnet.Overlapping(len(pfx), at, ps, sorted)
}

// generate derives one device's contracts from the facts.
func (g *Generator) generate(id topology.DeviceID) DeviceContracts {
	r := g.rulesFor(id)
	dc := DeviceContracts{Device: id}
	if c, ok := r.defaultContract(); ok {
		dc.add(c)
	}
	dc.grow(len(g.facts.Prefixes))
	for _, p := range g.facts.Prefixes {
		if c, ok := r.specific(p); ok {
			dc.add(c)
		}
	}
	return dc
}

// rules holds one device's role-specific expectations: the next-hop
// sets its contracts draw from. generate applies them to every prefix,
// ForDeviceScoped to the prefixes a scope selects.
type rules struct {
	id      topology.DeviceID
	role    topology.Role
	cluster int
	uplinks []topology.DeviceID
	// hosted is a ToR's own prefixes, which get no contract.
	hosted map[ipnet.Prefix]bool
	// byCluster is a spine's downlink leaves per cluster.
	byCluster map[int][]topology.DeviceID
	// downs is a regional spine's downlink spines.
	downs []topology.DeviceID
}

func (g *Generator) rulesFor(id topology.DeviceID) *rules {
	df := g.facts.Device(id)
	r := &rules{id: id, role: df.Role, cluster: df.Cluster, uplinks: devIDs(df.Uplinks)}
	switch df.Role {
	case topology.RoleToR:
		r.hosted = prefixSet(df.HostedPrefixes)
	case topology.RoleSpine:
		r.byCluster = make(map[int][]topology.DeviceID)
		for _, n := range df.Downlinks {
			r.byCluster[n.Cluster] = append(r.byCluster[n.Cluster], n.Device)
		}
		for c, hops := range r.byCluster {
			r.byCluster[c] = sortedCopy(hops)
		}
	case topology.RoleRegionalSpine:
		r.downs = devIDs(df.Downlinks)
	}
	return r
}

// defaultContract returns the device's default contract: all its
// uplinks — the neighboring leaves of a ToR, spines of a leaf, regional
// spines of a spine. A regional spine has none: its default points into
// the regional network, outside the datacenter model.
func (r *rules) defaultContract() (Contract, bool) {
	switch r.role {
	case topology.RoleToR, topology.RoleLeaf, topology.RoleSpine:
		return Contract{Device: r.id, Kind: Default, NextHops: r.uplinks}, true
	}
	return Contract{}, false
}

// specific returns the device's contract for prefix p, or false when it
// has none (a ToR's own prefixes):
//
//   - a ToR expects its neighboring leaves for every prefix not hosted
//     on it;
//   - a leaf sends same-cluster prefixes straight to the hosting ToR and
//     everything else to its spines;
//   - a spine expects the neighboring leaves of the hosting cluster
//     (with the plane structure, exactly one per cluster);
//   - a regional spine expects every neighboring spine, since each spine
//     reaches every cluster through its plane leaf.
func (r *rules) specific(p metadata.PrefixFacts) (Contract, bool) {
	c := Contract{Device: r.id, Kind: Specific, Prefix: p.Prefix}
	switch r.role {
	case topology.RoleToR:
		if r.hosted[p.Prefix] {
			return Contract{}, false
		}
		c.NextHops = r.uplinks
	case topology.RoleLeaf:
		if p.Cluster == r.cluster {
			c.NextHops = []topology.DeviceID{p.ToR}
		} else {
			c.NextHops = r.uplinks
		}
	case topology.RoleSpine:
		c.NextHops = r.byCluster[p.Cluster]
	case topology.RoleRegionalSpine:
		c.NextHops = r.downs
	default:
		return Contract{}, false
	}
	return c, true
}

// All generates contracts for every device in the datacenter.
func (g *Generator) All() []DeviceContracts {
	out := make([]DeviceContracts, 0, len(g.facts.Devices))
	for i := range g.facts.Devices {
		out = append(out, g.ForDevice(g.facts.Devices[i].ID))
	}
	return out
}

// Count returns the total number of contracts across all devices; the
// paper's "billions of reachability invariants" reduce to this many local
// checks.
func (g *Generator) Count() int {
	n := 0
	for i := range g.facts.Devices {
		n += len(g.ForDevice(g.facts.Devices[i].ID).Contracts)
	}
	return n
}

func (dc *DeviceContracts) add(c Contract) {
	if len(c.NextHops) == 0 {
		// A device with no expected next hops toward a prefix (possible in
		// degenerate topologies) has no forwarding obligation.
		return
	}
	dc.Contracts = append(dc.Contracts, c)
}

func (dc *DeviceContracts) grow(n int) {
	if cap(dc.Contracts)-len(dc.Contracts) < n {
		next := make([]Contract, len(dc.Contracts), len(dc.Contracts)+n)
		copy(next, dc.Contracts)
		dc.Contracts = next
	}
}

func sortedCopy(hops []topology.DeviceID) []topology.DeviceID {
	out := append([]topology.DeviceID(nil), hops...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func devIDs(ns []metadata.Neighbor) []topology.DeviceID {
	out := make([]topology.DeviceID, len(ns))
	for i, n := range ns {
		out[i] = n.Device
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func prefixSet(ps []ipnet.Prefix) map[ipnet.Prefix]bool {
	m := make(map[ipnet.Prefix]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}
