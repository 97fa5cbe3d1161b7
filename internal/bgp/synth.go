package bgp

import (
	"slices"
	"sort"
	"sync"

	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// ConfigUnbounded reports whether any device configuration alters route
// acceptance or session liveness — ASN overrides, default-route rejection,
// disabled sessions. Blast-radius analysis (internal/delta) must fall back
// to whole-DC revalidation under such configs; plain ECMP truncation
// (MaxECMPPaths) is localization-safe and does not count.
func ConfigUnbounded(cfg map[topology.DeviceID]*DeviceConfig) bool {
	for _, c := range cfg {
		if c != nil && (c.ASNOverride != 0 || c.RejectDefaultIn || c.SessionsDisabled) {
			return true
		}
	}
	return false
}

// Synth computes per-device converged EBGP state analytically, exploiting
// the plane-structured Clos topology: a spine learns each prefix from
// exactly one leaf (the hosting cluster's leaf on the spine's plane), so
// best-path selection collapses to reachability along the hierarchy. FIBs
// are produced lazily per device in O(prefixes + degree) time and memory —
// the property that lets RCDC-style local validation run on 10^4-device
// datacenters without a global snapshot.
//
// Synth honors the same DeviceConfig knobs as Sim and is cross-validated
// against it on randomized topologies (see synth_test.go).
type Synth struct {
	topo *topology.Topology
	cfg  map[topology.DeviceID]*DeviceConfig

	prefixes []topology.HostedPrefix
	// prefixIdx maps each hosted prefix to its index in prefixes; nil when
	// a prefix is hosted twice, which turns cache patching into eviction.
	// disjoint records that prefixes is sorted and pairwise disjoint, so
	// the prefixes overlapping a scope are found by binary search.
	prefixIdx map[ipnet.Prefix]int
	disjoint  bool
	// spineHas[p][k] reports whether the k'th spine (position in
	// topo.Spines(), a contiguous ID block) has a route for prefix p.
	spineHas        [][]bool
	spineBase       topology.DeviceID
	spineHasDefault map[topology.DeviceID]bool
	leafHasDefault  map[topology.DeviceID]bool
	// fastAccept short-circuits AS-path acceptance checks when no device
	// configuration overrides exist: under the default ASN allocation the
	// propagation rules never self-loop, so every constructed path is
	// accepted. (Cross-validated against Sim.)
	fastAccept bool

	// Opt-in per-device table cache keyed by topology generation: Refresh
	// consumes the change journal, evicts the devices the blast radius
	// marks whole and patches, entry by entry, the ones it scopes to a
	// prefix set, so steady-state pulls of unaffected devices are
	// O(copy). Off by default — a populated cache is a materialized global
	// snapshot, which the full-sweep paths deliberately avoid.
	mu       sync.Mutex
	cache    map[topology.DeviceID]*fib.Table
	cacheGen uint64

	// Metrics, when non-nil, counts table-cache hits and misses (cache
	// enabled only). Set before serving pulls; recording is atomic.
	Metrics *Metrics

	// UnionECMP disables MaxECMPPaths truncation so every synthesized
	// next-hop set is the union of all ECMP tie-break choices — the
	// ACORN-style route-nondeterminism abstraction the failure explorer
	// uses to cover "any tie-break" in a single validation run (and to
	// keep Clos symmetry intact: deterministic truncation picks hops by
	// device-ID order, which position permutations do not preserve). Set
	// before the first Table call; cached tables are not re-cut.
	UnionECMP bool
}

// EnableTableCache turns on per-device table caching. Cached tables are
// kept current by Refresh using the topology change journal: only devices
// inside the blast radius of the changes since the last Refresh are
// touched — patched in place when the radius scopes them to a prefix set,
// evicted when it marks them whole, and everything is evicted if the
// radius is unbounded or the journal was truncated. Call only on
// long-lived sources that serve repeated incremental pulls; memory grows
// to one table per distinct device pulled.
func (s *Synth) EnableTableCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = make(map[topology.DeviceID]*fib.Table)
	s.cacheGen = s.topo.Generation()
}

// NewSynth precomputes the tier reachability sets. Precomputation is
// O(prefixes × spinesPerPlane + links), after which Table is cheap. The
// sets snapshot the topology state at construction; call Refresh after
// mutating link state to bring them up to date.
func NewSynth(topo *topology.Topology, cfg map[topology.DeviceID]*DeviceConfig) *Synth {
	s := &Synth{topo: topo, cfg: cfg, prefixes: topo.HostedPrefixes()}
	if len(topo.Spines()) > 0 {
		s.spineBase = topo.Spines()[0]
	}
	s.disjoint = ipnet.SortedDisjoint(len(s.prefixes), func(i int) ipnet.Prefix { return s.prefixes[i].Prefix })
	s.prefixIdx = make(map[ipnet.Prefix]int, len(s.prefixes))
	for pi, hp := range s.prefixes {
		if _, dup := s.prefixIdx[hp.Prefix]; dup {
			s.prefixIdx = nil
			break
		}
		s.prefixIdx[hp.Prefix] = pi
	}
	s.Refresh()
	return s
}

// Refresh recomputes the precomputed reachability sets from the current
// topology and configuration state. The monitoring loop calls this at the
// start of every pull cycle so synthesized FIBs track live state. The
// derived sets are always rebuilt (they are cheap, and direct config-map
// edits leave no journal trace); the opt-in table cache is then brought
// up to date selectively via the change journal. Refresh must not run
// concurrently with Table.
func (s *Synth) Refresh() {
	s.rebuild()
	s.syncCache()
}

// rebuild recomputes the derived reachability sets.
func (s *Synth) rebuild() {
	topo := s.topo
	s.fastAccept = len(s.cfg) == 0
	spp := topo.Params.SpinesPerPlane
	nSpines := len(topo.Spines())

	s.spineHas = make([][]bool, len(s.prefixes))
	flat := make([]bool, len(s.prefixes)*nSpines)
	for pi, hp := range s.prefixes {
		has := flat[pi*nSpines : (pi+1)*nSpines]
		// The hosting cluster's leaf on each plane has the prefix iff its
		// link to the hosting ToR is live; each spine of that plane has it
		// iff additionally its link to that leaf is live.
		for plane, leaf := range topo.ClusterLeaves(hp.Cluster) {
			if !s.leafHasDirect(leaf, hp.ToR) {
				continue
			}
			for k := plane * spp; k < (plane+1)*spp; k++ {
				if s.live(topo.Spines()[k], leaf) {
					has[k] = true
				}
			}
		}
		s.spineHas[pi] = has
	}

	s.spineHasDefault = make(map[topology.DeviceID]bool)
	for _, sp := range topo.Spines() {
		if s.config(sp).RejectDefaultIn {
			continue
		}
		for _, rs := range topo.RegionalSpines() {
			if s.live(sp, rs) {
				s.spineHasDefault[sp] = true
				break
			}
		}
	}
	s.leafHasDefault = make(map[topology.DeviceID]bool)
	for _, leaf := range topo.Leaves() {
		if s.config(leaf).RejectDefaultIn {
			continue
		}
		for _, sp := range s.planeSpines(leaf) {
			if s.live(leaf, sp) && s.spineHasDefault[sp] {
				s.leafHasDefault[leaf] = true
				break
			}
		}
	}
}

// syncCache brings the cached tables up to the current generation: it
// evicts every device the blast radius of the changes since the cache
// was last synchronized marks whole, and patches the tables of the
// devices it scopes to a prefix set. Unbounded change sets (journal
// truncation, device-level changes, acceptance-altering configs) clear
// the whole cache.
func (s *Synth) syncCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return
	}
	gen := s.topo.Generation()
	if gen == s.cacheGen {
		return
	}
	ds := delta.Since(s.topo, s.cacheGen, delta.Options{UnboundedConfig: ConfigUnbounded(s.cfg)})
	s.cacheGen = gen
	if ds.Full() {
		s.cache = make(map[topology.DeviceID]*fib.Table)
		return
	}
	for _, d := range ds.Devices() {
		t, ok := s.cache[d]
		if !ok {
			continue
		}
		if ps, scoped := ds.Scope(d); scoped && s.prefixIdx != nil {
			s.patch(t, ps)
			continue
		}
		delete(s.cache, d)
	}
}

// patch recomputes, in the cached table t, the specific entries of the
// hosted prefixes overlapping ps: each is rewritten, inserted at its
// prefix-order position, or removed. The default and connected entries
// are left alone — the blast radius only scopes devices whose default
// entry cannot change. Cached tables are only ever copied, never looked
// up, so they have no lookup trie to reset.
func (s *Synth) patch(t *fib.Table, ps []ipnet.Prefix) {
	d := t.Device
	for _, pi := range s.overlapping(ps) {
		hp := s.prefixes[pi]
		if hp.ToR == d {
			continue // connected
		}
		i, found := s.findSpecific(t, pi)
		nhs := s.specificNextHops(d, pi, hp)
		e := fib.Entry{Prefix: hp.Prefix, NextHops: nhs}
		switch {
		case found && len(nhs) > 0:
			t.Entries[i] = e
		case found:
			t.Entries = slices.Delete(t.Entries, i, i+1)
		case len(nhs) > 0:
			t.Entries = slices.Insert(t.Entries, i, e)
		}
	}
}

// findSpecific returns the position of hosted prefix pi's entry in the
// cached table t — found, or where it would be inserted. Specific
// entries follow the connected entries and the default entry, in
// ascending prefix-index order (see synthesize).
func (s *Synth) findSpecific(t *fib.Table, pi int) (int, bool) {
	lo := len(s.topo.Device(t.Device).HostedPrefixes)
	if lo < len(t.Entries) && t.Entries[lo].Prefix.IsDefault() {
		lo++
	}
	i := lo + sort.Search(len(t.Entries)-lo, func(k int) bool {
		return s.prefixIdx[t.Entries[lo+k].Prefix] >= pi
	})
	return i, i < len(t.Entries) && t.Entries[i].Prefix == s.prefixes[pi].Prefix
}

// overlapping returns, in ascending order, the index of every hosted
// prefix that overlaps one of ps.
func (s *Synth) overlapping(ps []ipnet.Prefix) []int {
	at := func(i int) ipnet.Prefix { return s.prefixes[i].Prefix }
	return ipnet.Overlapping(len(s.prefixes), at, ps, s.disjoint)
}

// TableOverlapping implements fib.OverlapSource: device d's table
// restricted to its default entry and the entries overlapping ps,
// synthesized directly in O(|ps| log prefixes), not O(table), and equal
// entry for entry to Table(d).Overlapping(ps). It neither reads nor
// fills the table cache.
func (s *Synth) TableOverlapping(d topology.DeviceID, ps []ipnet.Prefix) (*fib.Table, error) {
	t := fib.NewTable(d)
	dev := s.topo.Device(d)
	for _, p := range dev.HostedPrefixes {
		if p.OverlapsAny(ps) {
			t.Add(fib.Entry{Prefix: p, Connected: true})
		}
	}
	if nhs := s.defaultNextHops(d); len(nhs) > 0 {
		t.Add(fib.Entry{Prefix: ipnet.Prefix{}, NextHops: nhs})
	}
	for _, pi := range s.overlapping(ps) {
		hp := s.prefixes[pi]
		if hp.ToR == d {
			continue // connected
		}
		if nhs := s.specificNextHops(d, pi, hp); len(nhs) > 0 {
			t.Add(fib.Entry{Prefix: hp.Prefix, NextHops: nhs})
		}
	}
	return t, nil
}

func (s *Synth) spineIdx(sp topology.DeviceID) int { return int(sp - s.spineBase) }

func (s *Synth) config(d topology.DeviceID) DeviceConfig {
	if c, ok := s.cfg[d]; ok {
		return *c
	}
	return DeviceConfig{}
}

func (s *Synth) asn(d topology.DeviceID) uint32 {
	if c, ok := s.cfg[d]; ok && c.ASNOverride != 0 {
		return c.ASNOverride
	}
	return s.topo.Device(d).ASN
}

// live reports whether the link between a and b carries a BGP session:
// physically up, not admin shut, and neither platform has Software Bug 2.
func (s *Synth) live(a, b topology.DeviceID) bool {
	l, ok := s.topo.LinkBetween(a, b)
	if !ok || !l.Live() {
		return false
	}
	if s.fastAccept {
		return true
	}
	return !s.config(a).SessionsDisabled && !s.config(b).SessionsDisabled
}

// leafHasDirect reports whether a leaf has the direct (intra-cluster) route
// to a prefix hosted at tor.
func (s *Synth) leafHasDirect(leaf, tor topology.DeviceID) bool {
	return s.live(leaf, tor)
}

// planeSpines returns the spines a leaf connects to (its plane).
func (s *Synth) planeSpines(leaf topology.DeviceID) []topology.DeviceID {
	plane := s.topo.Device(leaf).Plane
	spp := s.topo.Params.SpinesPerPlane
	return s.topo.Spines()[plane*spp : (plane+1)*spp]
}

// hostLeaf returns the hosting cluster's leaf on the given plane.
func (s *Synth) hostLeaf(cluster, plane int) topology.DeviceID {
	return s.topo.ClusterLeaves(cluster)[plane]
}

// acceptsPath mirrors Sim's AS-path loop check for device d.
func (s *Synth) acceptsPath(d topology.DeviceID, path []uint32) bool {
	own := s.asn(d)
	tor := s.topo.Device(d).Role == topology.RoleToR
	for i, a := range path {
		if a == own && !(tor && i == len(path)-1) {
			return false
		}
	}
	return true
}

func (s *Synth) truncate(d topology.DeviceID, nhs []topology.DeviceID) []topology.DeviceID {
	sort.Slice(nhs, func(i, j int) bool { return nhs[i] < nhs[j] })
	if m := s.config(d).MaxECMPPaths; m > 0 && len(nhs) > m && !s.UnionECMP {
		nhs = nhs[:m]
	}
	return nhs
}

// Table computes the converged FIB of one device, implementing fib.Source.
// With the table cache enabled, a hit returns a fresh Table wrapper over a
// copied entry slice: callers may reslice entries (the RIB-FIB corruption
// injector does) without corrupting the cache, but must treat the NextHops
// slices as immutable, same as contracts.
func (s *Synth) Table(d topology.DeviceID) (*fib.Table, error) {
	s.mu.Lock()
	caching := s.cache != nil
	if caching {
		if t, ok := s.cache[d]; ok {
			s.mu.Unlock()
			s.Metrics.observeCache(true)
			return copyTable(t), nil
		}
	}
	s.mu.Unlock()
	t := s.synthesize(d)
	if caching {
		s.Metrics.observeCache(false)
		s.mu.Lock()
		s.cache[d] = t
		s.mu.Unlock()
		return copyTable(t), nil
	}
	return t, nil
}

func copyTable(t *fib.Table) *fib.Table {
	cp := fib.NewTable(t.Device)
	cp.Entries = append([]fib.Entry(nil), t.Entries...)
	return cp
}

// synthesize computes the converged FIB of one device from the refreshed
// reachability sets.
func (s *Synth) synthesize(d topology.DeviceID) *fib.Table {
	t := fib.NewTable(d)
	dev := s.topo.Device(d)
	t.Entries = make([]fib.Entry, 0, len(s.prefixes)+2)

	// Connected routes.
	for _, p := range dev.HostedPrefixes {
		t.Add(fib.Entry{Prefix: p, Connected: true})
	}

	// Default route.
	if nhs := s.defaultNextHops(d); len(nhs) > 0 {
		t.Add(fib.Entry{Prefix: ipnet.Prefix{}, NextHops: nhs})
	}

	// Specific routes, in prefix order (HostedPrefixes is prefix-ordered).
	if dev.Role == topology.RoleToR && s.fastAccept {
		s.torSpecifics(t, d, dev)
		return t
	}
	for pi, hp := range s.prefixes {
		if dev.Role == topology.RoleToR && hp.ToR == d {
			continue // connected
		}
		if nhs := s.specificNextHops(d, pi, hp); len(nhs) > 0 {
			t.Add(fib.Entry{Prefix: hp.Prefix, NextHops: nhs})
		}
	}
	return t
}

// torSpecifics is the allocation-lean fast path for the dominant workload:
// ToR tables under the default ASN allocation. Per-device state (live
// leaves, their live plane-spine availability) is hoisted out of the
// per-prefix loop.
func (s *Synth) torSpecifics(t *fib.Table, d topology.DeviceID, dev *topology.Device) {
	leaves := s.topo.ClusterLeaves(dev.Cluster)
	type leafState struct {
		id     topology.DeviceID
		plane  int
		spines []int // spine indices with a live link from this leaf
	}
	var live []leafState
	for plane, leaf := range leaves {
		if !s.live(d, leaf) {
			continue
		}
		ls := leafState{id: leaf, plane: plane}
		for _, sp := range s.planeSpines(leaf) {
			if s.live(leaf, sp) {
				ls.spines = append(ls.spines, s.spineIdx(sp))
			}
		}
		live = append(live, ls)
	}
	maxPaths := s.config(d).MaxECMPPaths

	var hops []topology.DeviceID
	for pi := range s.prefixes {
		hp := &s.prefixes[pi]
		if hp.ToR == d {
			continue // connected
		}
		hops = hops[:0]
		has := s.spineHas[pi]
		if hp.Cluster == dev.Cluster {
			for _, ls := range live {
				// Direct route exists iff this leaf reaches the hosting
				// ToR; the leaf's own plane spine entry encodes exactly
				// leafHasDirect ∧ spine link — recheck the direct link.
				if s.leafHasDirect(ls.id, hp.ToR) {
					hops = append(hops, ls.id)
				}
			}
		} else {
			for _, ls := range live {
				for _, k := range ls.spines {
					if has[k] {
						hops = append(hops, ls.id)
						break
					}
				}
			}
		}
		if len(hops) == 0 {
			continue
		}
		out := make([]topology.DeviceID, len(hops))
		copy(out, hops)
		if maxPaths > 0 && len(out) > maxPaths && !s.UnionECMP {
			out = out[:maxPaths]
		}
		t.Add(fib.Entry{Prefix: hp.Prefix, NextHops: out})
	}
}

func (s *Synth) defaultNextHops(d topology.DeviceID) []topology.DeviceID {
	dev := s.topo.Device(d)
	cfg := s.config(d)
	if cfg.RejectDefaultIn {
		return nil
	}
	var nhs []topology.DeviceID
	switch dev.Role {
	case topology.RoleRegionalSpine:
		// The RS's own default points into the regional network, outside
		// the model; its FIB carries no default entry (matching Sim).
		return nil
	case topology.RoleSpine:
		for _, rs := range s.topo.RegionalSpines() {
			if s.live(d, rs) && (s.fastAccept || s.acceptsPath(d, []uint32{s.asn(rs)})) {
				nhs = append(nhs, rs)
			}
		}
	case topology.RoleLeaf:
		for _, sp := range s.planeSpines(d) {
			if s.live(d, sp) && s.spineHasDefault[sp] {
				// Path as advertised by the spine: [spineASN, rsASN].
				if s.fastAccept || s.acceptsPath(d, []uint32{s.asn(sp), s.asn(s.topo.RegionalSpines()[0])}) {
					nhs = append(nhs, sp)
				}
			}
		}
	case topology.RoleToR:
		for _, leaf := range s.topo.ClusterLeaves(dev.Cluster) {
			if s.live(d, leaf) && s.leafHasDefault[leaf] {
				if s.fastAccept {
					nhs = append(nhs, leaf)
					continue
				}
				sp := s.someDefaultSpine(leaf)
				if s.acceptsPath(d, []uint32{s.asn(leaf), s.asn(sp), s.asn(s.topo.RegionalSpines()[0])}) {
					nhs = append(nhs, leaf)
				}
			}
		}
	}
	return s.truncate(d, nhs)
}

// someDefaultSpine returns the lowest-ID spine from which the leaf has the
// default route (the representative path Sim would advertise).
func (s *Synth) someDefaultSpine(leaf topology.DeviceID) topology.DeviceID {
	for _, sp := range s.planeSpines(leaf) {
		if s.live(leaf, sp) && s.spineHasDefault[sp] {
			return sp
		}
	}
	return topology.None
}

func (s *Synth) specificNextHops(d topology.DeviceID, pi int, hp topology.HostedPrefix) []topology.DeviceID {
	dev := s.topo.Device(d)
	torASN := s.asn(hp.ToR)
	has := s.spineHas[pi]
	var nhs []topology.DeviceID
	switch dev.Role {
	case topology.RoleRegionalSpine:
		for _, sp := range s.topo.Spines() {
			if !s.live(d, sp) || !has[s.spineIdx(sp)] {
				continue
			}
			if s.fastAccept {
				nhs = append(nhs, sp)
				continue
			}
			hl := s.hostLeaf(hp.Cluster, s.topo.Device(sp).Plane)
			if s.acceptsPath(d, []uint32{s.asn(sp), s.asn(hl), torASN}) {
				nhs = append(nhs, sp)
			}
		}
	case topology.RoleSpine:
		hl := s.hostLeaf(hp.Cluster, dev.Plane)
		if s.live(d, hl) && s.leafHasDirect(hl, hp.ToR) &&
			(s.fastAccept || s.acceptsPath(d, []uint32{s.asn(hl), torASN})) {
			nhs = append(nhs, hl)
		}
	case topology.RoleLeaf:
		if dev.Cluster == hp.Cluster {
			if s.leafHasDirect(d, hp.ToR) && (s.fastAccept || s.acceptsPath(d, []uint32{torASN})) {
				nhs = append(nhs, hp.ToR)
			}
			break
		}
		hl := s.hostLeaf(hp.Cluster, dev.Plane)
		for _, sp := range s.planeSpines(d) {
			if s.live(d, sp) && has[s.spineIdx(sp)] &&
				(s.fastAccept || s.acceptsPath(d, []uint32{s.asn(sp), s.asn(hl), torASN})) {
				nhs = append(nhs, sp)
			}
		}
	case topology.RoleToR:
		for plane, leaf := range s.topo.ClusterLeaves(dev.Cluster) {
			if !s.live(d, leaf) {
				continue
			}
			var path []uint32
			if dev.Cluster == hp.Cluster {
				if !s.leafHasDirect(leaf, hp.ToR) {
					continue
				}
				path = []uint32{s.asn(leaf), torASN}
			} else {
				// The leaf needs a via-spine route on its plane.
				ok := false
				for _, sp := range s.planeSpines(leaf) {
					if s.live(leaf, sp) && has[s.spineIdx(sp)] {
						hl := s.hostLeaf(hp.Cluster, plane)
						if s.acceptsPath(leaf, []uint32{s.asn(sp), s.asn(hl), torASN}) {
							ok = true
							path = []uint32{s.asn(leaf), s.asn(sp), s.asn(hl), torASN}
							break
						}
					}
				}
				if !ok {
					continue
				}
			}
			if s.acceptsPath(d, path) {
				nhs = append(nhs, leaf)
			}
		}
	}
	return s.truncate(d, nhs)
}
