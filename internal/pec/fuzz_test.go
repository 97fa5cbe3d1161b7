package pec

import (
	"reflect"
	"testing"

	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// fuzzReader decodes a byte stream into a FIB and contract set. The
// decoder concentrates prefixes in a tiny address region with a small
// prefix-length palette and a small hop universe, so shadowing, exact
// duplicates, nesting, and hop-set mismatches all occur constantly.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

var fuzzBits = [...]uint8{0, 8, 12, 16, 20, 22, 23, 24, 25, 26, 28, 30, 32}

func (r *fuzzReader) prefix() ipnet.Prefix {
	bits := fuzzBits[int(r.byte())%len(fuzzBits)]
	addr := uint32(0x0a000000) | uint32(r.byte())<<16 | uint32(r.byte())<<8 | uint32(r.byte())
	if r.byte()%8 == 0 {
		addr &= 0x0a0000ff // pile prefixes onto one /24 for dense nesting
	}
	return ipnet.PrefixFrom(ipnet.Addr(addr), bits)
}

func (r *fuzzReader) hopSet() []topology.DeviceID {
	n := int(r.byte()) % 5
	out := make([]topology.DeviceID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, topology.DeviceID(r.byte()%6))
	}
	return out
}

func (r *fuzzReader) decode() (*fib.Table, contracts.DeviceContracts, topology.Role, bool) {
	exact := r.byte()%2 == 1
	role := topology.Role(r.byte() % 4)
	tbl := fib.NewTable(3)
	for n := int(r.byte()) % 24; n > 0; n-- {
		e := fib.Entry{Prefix: r.prefix()}
		if r.byte()%6 == 0 {
			e.Connected = true
		} else {
			e.NextHops = r.hopSet()
		}
		tbl.Add(e)
	}
	dc := contracts.DeviceContracts{Device: 3}
	for n := int(r.byte()) % 8; n > 0; n-- {
		c := contracts.Contract{Device: 3, Prefix: r.prefix(), NextHops: r.hopSet()}
		if r.byte()%4 == 0 {
			c.Kind = contracts.Default
			c.Prefix = ipnet.Prefix{}
		}
		dc.Contracts = append(dc.Contracts, c)
	}
	return tbl, dc, role, exact
}

// FuzzPECDifferential drives randomized FIB/contract mutations through
// the PEC engine with the trie engine as oracle: verdicts must match
// field-for-field (and therefore byte-for-byte once rendered), the
// cached re-check must return the identical result, and the engine's
// counterexample classes must agree with longest-prefix-match lookups.
func FuzzPECDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 5, 10, 1, 2, 3, 0, 4, 2, 2, 0, 3, 9, 9, 9, 1, 1})
	f.Add([]byte{0, 0, 24, 0, 0, 0, 0, 0, 3, 1, 2, 3, 7, 0, 0, 0, 0, 0, 2, 2, 2,
		8, 12, 0, 255, 1, 0, 2, 4, 5, 1, 0, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{1, 3, 12, 0, 0, 0, 0, 0, 2, 1, 2, 12, 0, 0, 0, 0, 0, 2, 2, 1,
		0, 0, 0, 0, 0, 0, 2, 1, 2, 3, 1, 0, 0, 0, 0, 2, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		tbl, dc, role, exact := r.decode()

		want, err := rcdc.TrieChecker{Exact: exact}.CheckDevice(tbl, dc, role)
		if err != nil {
			t.Fatalf("trie: %v", err)
		}
		pc := &Checker{Exact: exact}
		got, err := pc.CheckDevice(tbl, dc, role)
		if err != nil {
			t.Fatalf("pec: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("engines diverge (exact=%v)\ntable: %+v\ncontracts: %+v\ntrie: %v\npec:  %v",
				exact, tbl.Entries, dc.Contracts, want, got)
		}
		// The cache-hit path must reproduce the identical verdicts from a
		// content-equal clone.
		again, err := pc.CheckDevice(tbl.Clone(), dc, role)
		if err != nil {
			t.Fatalf("pec cached: %v", err)
		}
		if !reflect.DeepEqual(want, again) {
			t.Fatalf("cached verdicts diverge\nfirst: %v\ncached: %v", got, again)
		}
		if st := pc.Stats(); st.CacheHits != 1 || st.Atomizations != 1 {
			t.Fatalf("cache accounting off: %+v", st)
		}

		// Counterexample classes vs the LPM oracle at both endpoints.
		for _, cl := range pc.Classes(tbl, dc) {
			for _, a := range []ipnet.Addr{cl.Lo, cl.Hi} {
				e, ok := tbl.Lookup(a)
				if cl.HasOwner {
					if !ok || e.Prefix != cl.Owner {
						t.Fatalf("addr %v: class owner %v vs LPM %+v (ok=%v)", a, cl.Owner, e, ok)
					}
				} else if ok && !e.Prefix.IsDefault() {
					t.Fatalf("addr %v: ownerless class but LPM hit %v", a, e.Prefix)
				}
			}
		}
	})
}

// arenaDev is one synthetic near-clone in the arena fuzzer's fleet.
type arenaDev struct {
	tbl  *fib.Table
	dc   contracts.DeviceContracts
	role topology.Role
}

// cloneFor derives device i of a fuzzed fleet from the template: same
// structure, device identity rewritten and every next hop offset into a
// device-private band — near-clones that should share a shape — plus
// zero to two extra connected entries that perturb (or break) the
// delta-locality conditions on just that device.
func (r *fuzzReader) cloneFor(i int, tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) arenaDev {
	id := topology.DeviceID(1000 + i)
	off := topology.DeviceID(16 * i)
	shift := func(hops []topology.DeviceID) []topology.DeviceID {
		out := make([]topology.DeviceID, len(hops))
		for j, h := range hops {
			out[j] = h + off
		}
		return out
	}
	d := arenaDev{tbl: fib.NewTable(id), role: role}
	for _, e := range tbl.Entries {
		d.tbl.Add(fib.Entry{Prefix: e.Prefix, Connected: e.Connected, NextHops: shift(e.NextHops)})
	}
	for n := int(r.byte()) % 3; n > 0; n-- {
		p := r.prefix()
		if p.Bits == 0 {
			continue
		}
		d.tbl.Add(fib.Entry{Prefix: p, Connected: true})
	}
	d.dc = contracts.DeviceContracts{Device: id}
	for _, ct := range dc.Contracts {
		ct.Device = id
		ct.NextHops = shift(ct.NextHops)
		d.dc.Contracts = append(d.dc.Contracts, ct)
	}
	return d
}

// FuzzArenaDifferential drives a fleet of fuzzed near-clone devices
// through the shared atom arena with the per-device PEC path and the trie
// engine as oracles: all three must agree device by device, before and
// after randomized mutation/invalidation/detach rounds. This is the
// correctness line of the arena — shape sharing, rank collapse, verdict
// materialization, refcounting, and the locality fallback all sit under
// it.
func FuzzArenaDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 5, 10, 1, 2, 3, 0, 4, 2, 2, 0, 3, 9, 9, 9, 1, 1, 3, 0, 2, 7, 1})
	f.Add([]byte{0, 0, 24, 0, 0, 0, 0, 0, 3, 1, 2, 3, 7, 0, 0, 0, 0, 0, 2, 2, 2,
		8, 12, 0, 255, 1, 0, 2, 4, 5, 1, 0, 0, 0, 0, 0, 1, 1, 2, 1, 8, 1, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		tbl, dc, role, exact := r.decode()
		devs := make([]arenaDev, 2+int(r.byte())%4)
		for i := range devs {
			devs[i] = r.cloneFor(i, tbl, dc, role)
		}

		shared := &Checker{Exact: exact}
		private := &Checker{DisableArena: true, Exact: exact}
		trie := rcdc.TrieChecker{Exact: exact}
		checkAll := func(stage string) {
			for i := range devs {
				d := &devs[i]
				want, err := trie.CheckDevice(d.tbl, d.dc, d.role)
				if err != nil {
					t.Fatalf("%s dev %d trie: %v", stage, i, err)
				}
				gotS, err := shared.CheckDevice(d.tbl, d.dc, d.role)
				if err != nil {
					t.Fatalf("%s dev %d shared: %v", stage, i, err)
				}
				gotP, err := private.CheckDevice(d.tbl, d.dc, d.role)
				if err != nil {
					t.Fatalf("%s dev %d private: %v", stage, i, err)
				}
				if !reflect.DeepEqual(want, gotS) || !reflect.DeepEqual(want, gotP) {
					t.Fatalf("%s dev %d diverges (exact=%v)\ntable: %+v\ncontracts: %+v\ntrie:    %v\nshared:  %v\nprivate: %v",
						stage, i, exact, d.tbl.Entries, d.dc.Contracts, want, gotS, gotP)
				}
			}
		}
		checkAll("initial")

		for round := 1 + int(r.byte())%3; round > 0; round-- {
			d := &devs[int(r.byte())%len(devs)]
			switch r.byte() % 3 {
			case 0: // grow: a new rule changes the shape
				d.tbl.Add(fib.Entry{Prefix: r.prefix(), NextHops: r.hopSet()})
			case 1: // rewire: same structure candidate, different hops
				if n := len(d.tbl.Entries); n > 0 {
					d.tbl.Entries[int(r.byte())%n].NextHops = r.hopSet()
				}
			case 2: // shrink (rebuilt: slicing alone would leave a stale trie)
				if n := len(d.tbl.Entries); n > 0 {
					nt := fib.NewTable(d.tbl.Device)
					for _, e := range d.tbl.Entries[:n-1] {
						nt.Add(e)
					}
					d.tbl = nt
				}
			}
			if r.byte()%2 == 0 {
				// Explicit blast-radius invalidation: the mutated device plus
				// one innocent bystander detach (and may evict / re-attach).
				shared.Invalidate([]topology.DeviceID{
					d.tbl.Device,
					devs[int(r.byte())%len(devs)].tbl.Device,
				})
			}
			checkAll("mutated")
		}
	})
}

// inside returns a random prefix inside q (q itself included).
func (r *fuzzReader) inside(q ipnet.Prefix) ipnet.Prefix {
	raw := r.prefix()
	bits := max(raw.Bits, q.Bits)
	m := q.Mask()
	return ipnet.PrefixFrom(q.Addr&m|raw.Addr&^m, bits)
}

// scopedEdit returns a copy of tbl edited only inside the scope ps:
// entries whose prefix lies inside one of ps are added, removed or
// given new next hops; the default entry is never touched.
func (r *fuzzReader) scopedEdit(tbl *fib.Table, ps []ipnet.Prefix) *fib.Table {
	entries := append([]fib.Entry(nil), tbl.Entries...)
	inScope := func(p ipnet.Prefix) bool {
		if p.IsDefault() {
			return false
		}
		for _, q := range ps {
			if q.ContainsPrefix(p) {
				return true
			}
		}
		return false
	}
	for n := 1 + int(r.byte())%4; n > 0; n-- {
		switch r.byte() % 3 {
		case 0: // add a rule inside the scope
			p := r.inside(ps[int(r.byte())%len(ps)])
			if p.IsDefault() {
				continue
			}
			e := fib.Entry{Prefix: p, NextHops: r.hopSet()}
			if r.byte()%6 == 0 {
				e = fib.Entry{Prefix: p, Connected: true}
			}
			entries = append(entries, e)
		case 1: // remove a rule inside the scope
			var idx []int
			for i := range entries {
				if inScope(entries[i].Prefix) {
					idx = append(idx, i)
				}
			}
			if len(idx) > 0 {
				i := idx[int(r.byte())%len(idx)]
				entries = append(entries[:i:i], entries[i+1:]...)
			}
		case 2: // rewire a rule inside the scope
			for i := range entries {
				if inScope(entries[i].Prefix) && r.byte()%2 == 0 {
					entries[i] = fib.Entry{Prefix: entries[i].Prefix, NextHops: r.hopSet()}
				}
			}
		}
	}
	out := fib.NewTable(tbl.Device)
	for _, e := range entries {
		out.Add(e)
	}
	return out
}

// FuzzScopedSplice is the differential line of the two-dimensional delta
// path: a random table and contract set, then a random edit confined to
// a prefix scope (the promise a scoped blast radius makes). Rechecking
// only the contracts the scope selects, against the edited table
// restricted to the entries overlapping them, and splicing the result
// into the old violations must equal a full check of the edited table —
// with the trie engine and with the PEC engine (arena on), whose
// per-device cache then holds the restricted state.
func FuzzScopedSplice(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 5, 10, 1, 2, 3, 0, 4, 2, 2, 0, 3, 9, 9, 9, 1, 1, 7, 1, 0, 1, 2, 3, 0, 2, 1})
	f.Add([]byte{0, 0, 24, 0, 0, 0, 0, 0, 3, 1, 2, 3, 7, 0, 0, 0, 0, 0, 2, 2, 2,
		8, 12, 0, 255, 1, 0, 2, 4, 5, 1, 0, 0, 0, 0, 0, 1, 1, 3, 7, 0, 0, 0, 0, 3, 0, 5, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		tbl, dc, role, exact := r.decode()
		ps := []ipnet.Prefix{r.prefix()}
		if r.byte()%3 == 0 {
			ps = append(ps, r.prefix())
		}
		edited := r.scopedEdit(tbl, ps)

		trie := rcdc.TrieChecker{Exact: exact}
		want, err := trie.CheckDevice(edited, dc, role)
		if err != nil {
			t.Fatalf("trie: %v", err)
		}
		for _, chk := range []rcdc.Checker{trie, &Checker{Exact: exact}} {
			prev, err := chk.CheckDevice(tbl, dc, role)
			if err != nil {
				t.Fatalf("%T prev: %v", chk, err)
			}
			sub, cps := dc.Scoped(ps)
			var fresh []rcdc.Violation
			if len(sub.Contracts) > 0 {
				if fresh, err = chk.CheckDevice(edited.Overlapping(cps), sub, role); err != nil {
					t.Fatalf("%T scoped: %v", chk, err)
				}
			}
			got := rcdc.SpliceScoped(prev, fresh, ps, func() contracts.DeviceContracts { return dc })
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%T: scoped splice diverges from the full check (exact=%v, scope %v)\nbefore: %+v\nafter:  %+v\ncontracts: %+v\nfull:    %v\nspliced: %v",
					chk, exact, ps, tbl.Entries, edited.Entries, dc.Contracts, want, got)
			}
		}
	})
}
