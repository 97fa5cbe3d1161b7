// Package delta computes the blast radius of a topology change set: the
// set of devices whose converged FIBs can differ from before the changes,
// i.e. the only devices incremental revalidation needs to revisit, and,
// where the rules can bound it, the prefixes whose entries can differ on
// each of them.
//
// This is the change-driven half of the paper's locality argument (§2.4,
// Claim 1): because contracts are local and the EBGP design is a strict
// plane-structured hierarchy, a link state change propagates along a small,
// statically characterizable set of paths. The rules below are derived
// from the converged-state model in internal/bgp (Synth) and are
// deliberately conservative — the computed set is a superset of the
// devices whose tables actually change, never a subset. Changes the rules
// cannot bound (device-level config edits, links outside the recognized
// tiers, configs that alter route acceptance) fall back to the whole
// datacenter, which is always safe: incremental validation then degrades
// to the full sweep it replaces.
//
// Each dirty device is either whole (any entry may change, the default
// route included) or scoped to a prefix set: only entries whose prefix
// lies inside one of the scope's prefixes may be added, removed or
// rewritten, and the default entry stays as it was. A device whose
// default entry can change is always whole. When one window holds
// several changes, whole beats scoped and scopes of the same device
// unite.
//
// Per change type, with l = leaf of cluster c on plane j:
//
//   - ToR–leaf link (t — l): the hosting cluster's plane-j leaf is the
//     unique injector of t's prefixes into plane j, so the prefixes appear
//     or vanish across the whole plane and every ToR in the datacenter
//     adjusts its ECMP set for them. Dirty: t whole (its default route and
//     every one of its specifics change); every other ToR, the plane-j
//     leaves, the plane-j spines and all regional spines scoped to t's
//     hosted prefixes — none of their default routes depends on a ToR
//     link, and every other prefix's routes run over links the change did
//     not touch.
//
//   - Leaf–spine link (l — s): the endpoints and every plane-j leaf (their
//     via-spine route sets mention s), plus the regional spines adjacent
//     to s. ToRs are only dragged in when the leaf above them may have
//     gained or lost its *last* path for some remote cluster's prefixes or
//     for the default route — checked per cluster against the alternative
//     spines of the plane. All whole.
//
//   - Spine–RS link (s — r): the endpoints; if s has no stable live RS
//     link, its default-route origination may flip, dirtying the plane-j
//     leaves, and any such leaf left without a stable default spine drags
//     in its cluster's ToRs. All whole.
//
//   - Everything else (ChangeDevice, unrecognized tiers): whole DC.
//
// All alternative-path tests demand *stable* links: live in the current
// state and untouched by the change window. A stable path existed before
// the window too, so the route availability it witnesses provably did not
// flip — which is what licenses leaving a device out of the dirty set.
// A link that changed mid-window (even back to its original state) never
// counts as an alternative.
package delta

import (
	"slices"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// Set is a blast-radius dirty set: either an explicit device set, each
// device whole or scoped to a prefix set, or the conservative
// whole-datacenter fallback.
type Set struct {
	full bool
	// devs maps each dirty device to its scope: nil for the whole device,
	// else the prefixes inside which its entries may change.
	devs map[topology.DeviceID][]ipnet.Prefix
}

// NewSet returns an empty dirty set.
func NewSet() *Set { return &Set{devs: make(map[topology.DeviceID][]ipnet.Prefix)} }

// Full reports whether the set degenerated to the whole datacenter.
func (s *Set) Full() bool { return s.full }

// MarkFull degrades the set to the whole-datacenter fallback.
func (s *Set) MarkFull() { s.full = true }

// Add marks one device whole: any of its entries may change.
func (s *Set) Add(d topology.DeviceID) {
	if !s.full {
		s.devs[d] = nil
	}
}

// AddAll marks a slice of devices whole.
func (s *Set) AddAll(ds []topology.DeviceID) {
	for _, d := range ds {
		s.Add(d)
	}
}

// AddScoped marks one device dirty inside the prefixes ps only: entries
// whose prefix lies inside none of them, and the default entry, keep
// their previous state. A device already whole stays whole; scopes of
// the same device unite. An empty ps marks the device whole.
func (s *Set) AddScoped(d topology.DeviceID, ps []ipnet.Prefix) {
	if s.full {
		return
	}
	cur, ok := s.devs[d]
	switch {
	case len(ps) == 0 || (ok && cur == nil):
		s.devs[d] = nil
		return
	case !ok:
		// Devices scoped by one rule share its slice; clipping makes a
		// later union copy instead of writing into it.
		s.devs[d] = slices.Clip(ps)
		return
	}
	merged := slices.Clip(cur)
	for _, p := range ps {
		if !slices.Contains(merged, p) {
			merged = append(merged, p)
		}
	}
	s.devs[d] = merged
}

// AddAllScoped scopes a slice of devices to the same prefixes.
func (s *Set) AddAllScoped(ds []topology.DeviceID, ps []ipnet.Prefix) {
	for _, d := range ds {
		s.AddScoped(d, ps)
	}
}

// Contains reports whether the device is dirty. A full set contains
// every device.
func (s *Set) Contains(d topology.DeviceID) bool {
	if s.full {
		return true
	}
	_, ok := s.devs[d]
	return ok
}

// Scope returns the prefixes a dirty device is scoped to, with scoped
// true, or scoped false when the device is whole, not dirty, or the set
// is full. The slice is shared; treat it as immutable.
func (s *Set) Scope(d topology.DeviceID) (ps []ipnet.Prefix, scoped bool) {
	if s.full {
		return nil, false
	}
	ps = s.devs[d]
	return ps, ps != nil
}

// Count returns the number of explicitly dirty devices (0 for a full set;
// use Full to distinguish).
func (s *Set) Count() int {
	if s.full {
		return 0
	}
	return len(s.devs)
}

// Scoped returns the number of dirty devices scoped to a prefix set (0
// for a full set); Count minus Scoped devices are whole.
func (s *Set) Scoped() int {
	if s.full {
		return 0
	}
	n := 0
	for _, ps := range s.devs {
		if ps != nil {
			n++
		}
	}
	return n
}

// Devices returns the dirty devices, whole and scoped, in ascending ID
// order, or nil for a full set.
func (s *Set) Devices() []topology.DeviceID {
	if s.full {
		return nil
	}
	out := make([]topology.DeviceID, 0, len(s.devs))
	for d := range s.devs {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// Options tunes the blast-radius computation.
type Options struct {
	// UnboundedConfig marks the presence of device configuration that
	// alters route acceptance or session liveness (ASN overrides,
	// default-route rejection, platform-disabled sessions — see
	// bgp.ConfigUnbounded). The structural rules assume topology-level
	// liveness equals routing-level liveness; such configs break that
	// assumption, so any link change degrades to the whole-DC fallback.
	// ECMP truncation (MaxECMPPaths) is safe and does not set this: a
	// truncated set only changes when the untruncated set does.
	UnboundedConfig bool

	// Metrics, when non-nil, records the size of every computed blast
	// radius, whole and scoped devices apart, or a fallback counter tick
	// when it degrades to full (a truncated journal included).
	Metrics *Metrics
}

// window carries the per-window state the blast rules consult: the
// topology and the set of links touched anywhere in the change window.
type window struct {
	t       *topology.Topology
	changed map[topology.LinkID]bool
}

// Since returns the blast radius of every change journaled after
// generation gen, or the whole-DC fallback when the journal no longer
// reaches back to gen. It is the one planner of the incremental paths:
// the engine's delta runs, the monitor's cycle plan, the explorer's
// scenario revalidation and the synth table cache's eviction all ask it
// what to revisit.
func Since(t *topology.Topology, gen uint64, opts Options) *Set {
	changes, ok := t.ChangesSince(gen)
	if !ok {
		s := NewSet()
		s.MarkFull()
		opts.Metrics.observeSet(s)
		return s
	}
	return Compute(t, changes, opts)
}

// Compute returns the blast radius of a journaled change sequence against
// the topology's *current* (post-change) state. The result is a superset
// of the devices whose converged tables differ from before the sequence.
func Compute(t *topology.Topology, changes []topology.Change, opts Options) *Set {
	s := NewSet()
	defer func() { opts.Metrics.observeSet(s) }()
	sc := window{t: t, changed: make(map[topology.LinkID]bool, len(changes))}
	for _, c := range changes {
		if c.Kind == topology.ChangeDevice || opts.UnboundedConfig {
			s.MarkFull()
			return s
		}
		sc.changed[c.Link] = true
	}
	for _, c := range changes {
		if s.full {
			break
		}
		sc.blastLink(t.Link(c.Link), s)
	}
	return s
}

// blastLink adds the dirty set of one link state change.
func (sc window) blastLink(l *topology.Link, s *Set) {
	t := sc.t
	a, b := t.Device(l.A), t.Device(l.B)
	if a.Role > b.Role {
		a, b = b, a
	}
	switch {
	case a.Role == topology.RoleToR && b.Role == topology.RoleLeaf:
		sc.blastToRLeaf(a, b, s)
	case a.Role == topology.RoleLeaf && b.Role == topology.RoleSpine:
		sc.blastLeafSpine(a, b, s)
	case a.Role == topology.RoleSpine && b.Role == topology.RoleRegionalSpine:
		sc.blastSpineRS(a, b, s)
	default:
		// No such link tier exists in generated Clos topologies; keep the
		// fallback anyway so hand-built topologies stay safe.
		s.MarkFull()
	}
}

// blastToRLeaf handles a ToR–leaf link change: the ToR's prefixes are
// (un)injected into the leaf's whole plane, so every ToR in the DC and the
// regional spines adjust their ECMP sets for them. The ToR itself is
// whole; everyone else changes only inside the ToR's prefixes.
func (sc window) blastToRLeaf(tor, leaf *topology.Device, s *Set) {
	t := sc.t
	ps := slices.Clone(tor.HostedPrefixes)
	s.AddAllScoped(t.ToRs(), ps)
	s.AddAllScoped(planeLeaves(t, leaf.Plane), ps)
	s.AddAllScoped(planeSpines(t, leaf.Plane), ps)
	s.AddAllScoped(t.RegionalSpines(), ps)
	s.Add(tor.ID)
}

// blastLeafSpine handles a leaf–spine link change between leaf l (cluster
// c, plane j) and spine sp.
func (sc window) blastLeafSpine(l, sp *topology.Device, s *Set) {
	t := sc.t
	s.Add(l.ID)
	s.Add(sp.ID)
	s.AddAll(planeLeaves(t, l.Plane))
	for _, r := range neighborsOfRole(t, sp.ID, topology.RoleRegionalSpine) {
		s.Add(r)
	}
	// l's own cluster's ToRs see l in their ECMP sets for every remote
	// prefix and the default route; they are dirty only if l's route
	// *availability* can have flipped, i.e. no stable path witnesses the
	// route independently of the changed links.
	if !sc.leafKeepsAllRoutes(l) {
		s.AddAll(t.ClusterToRs(l.Cluster))
	}
	// Another cluster c2's ToRs see their own plane-j leaf in the ECMP set
	// for cluster c's prefixes; that availability flips only if no stable
	// plane path from that leaf into l remains.
	for c2 := 0; c2 < t.Params.Clusters; c2++ {
		if c2 == l.Cluster {
			continue
		}
		l2 := t.ClusterLeaves(c2)[l.Plane]
		if !sc.hasStableSpinePath(l2, l.ID) {
			s.AddAll(t.ClusterToRs(c2))
		}
	}
}

// blastSpineRS handles a spine–RS link change between spine sp (plane j)
// and regional spine r.
func (sc window) blastSpineRS(sp, r *topology.Device, s *Set) {
	t := sc.t
	s.Add(sp.ID)
	s.Add(r.ID)
	if sc.spineHasStableRS(sp.ID) {
		return
	}
	// sp's default-route origination may flip: every plane-j leaf's
	// default ECMP set can change, and any leaf left without a stable
	// default-carrying spine flips its own default, dirtying its ToRs.
	leaves := planeLeaves(t, sp.Plane)
	s.AddAll(leaves)
	for _, lf := range leaves {
		if !sc.leafHasStableDefault(t.Device(lf)) {
			s.AddAll(t.ClusterToRs(t.Device(lf).Cluster))
		}
	}
}

// leafKeepsAllRoutes reports whether leaf l retains, over stable links
// only, a live plane path to every other cluster and a default route —
// i.e. whether l's route availability is provably unchanged by the window.
func (sc window) leafKeepsAllRoutes(l *topology.Device) bool {
	t := sc.t
	for c2 := 0; c2 < t.Params.Clusters; c2++ {
		if c2 == l.Cluster {
			continue
		}
		l2 := t.ClusterLeaves(c2)[l.Plane]
		if !sc.hasStableSpinePath(l.ID, l2) {
			return false
		}
	}
	return sc.leafHasStableDefault(l)
}

// hasStableSpinePath reports whether leaf from reaches leaf to over some
// plane spine with both hops stable.
func (sc window) hasStableSpinePath(from, to topology.DeviceID) bool {
	for _, k := range planeSpines(sc.t, sc.t.Device(from).Plane) {
		if sc.stable(from, k) && sc.stable(k, to) {
			return true
		}
	}
	return false
}

// leafHasStableDefault reports whether leaf l has a stable link to a plane
// spine that itself has a stable RS link (and hence a stable default).
func (sc window) leafHasStableDefault(l *topology.Device) bool {
	for _, k := range planeSpines(sc.t, l.Plane) {
		if sc.stable(l.ID, k) && sc.spineHasStableRS(k) {
			return true
		}
	}
	return false
}

// spineHasStableRS reports whether spine sp has a stable live RS link.
func (sc window) spineHasStableRS(sp topology.DeviceID) bool {
	for _, r := range neighborsOfRole(sc.t, sp, topology.RoleRegionalSpine) {
		if sc.stable(sp, r) {
			return true
		}
	}
	return false
}

// stable reports whether the a—b link exists, is live now, and was not
// touched anywhere in the change window — so it was live throughout.
func (sc window) stable(a, b topology.DeviceID) bool {
	l, ok := sc.t.LinkBetween(a, b)
	return ok && l.Live() && !sc.changed[l.ID]
}

func planeLeaves(t *topology.Topology, plane int) []topology.DeviceID {
	out := make([]topology.DeviceID, 0, t.Params.Clusters)
	for c := 0; c < t.Params.Clusters; c++ {
		out = append(out, t.ClusterLeaves(c)[plane])
	}
	return out
}

func planeSpines(t *topology.Topology, plane int) []topology.DeviceID {
	spp := t.Params.SpinesPerPlane
	return t.Spines()[plane*spp : (plane+1)*spp]
}

func neighborsOfRole(t *topology.Topology, d topology.DeviceID, role topology.Role) []topology.DeviceID {
	var out []topology.DeviceID
	for _, lid := range t.LinksOf(d) {
		p, _ := t.Link(lid).Peer(d)
		if t.Device(p).Role == role {
			out = append(out, p)
		}
	}
	return out
}
