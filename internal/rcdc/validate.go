package rcdc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/topology"
)

// DeviceReport is the validation outcome for one device.
type DeviceReport struct {
	Device     topology.DeviceID
	Name       string
	Role       topology.Role
	Contracts  int
	Violations []Violation
	Elapsed    time.Duration
}

// Healthy reports whether the device passed all its contracts.
func (r *DeviceReport) Healthy() bool { return len(r.Violations) == 0 }

// Report aggregates a validation run over a set of devices.
type Report struct {
	Devices  []DeviceReport
	Elapsed  time.Duration
	Workers  int
	Checked  int // total contracts checked
	Failures int // total violations
	// Generation is caller-maintained bookkeeping: the topology generation
	// the report reflects, recorded by callers that feed the report back
	// into ValidateDelta (the validator itself never reads it).
	Generation uint64
}

// HighRisk returns the number of high-risk violations (§2.6.4).
func (r *Report) HighRisk() int {
	n := 0
	for i := range r.Devices {
		for _, v := range r.Devices[i].Violations {
			if v.Severity == HighRisk {
				n++
			}
		}
	}
	return n
}

// Violations flattens all violations across devices. The returned slice
// is a deep copy: callers may sort it, truncate it, or edit the next-hop
// sets of individual violations without corrupting the report — or the
// cached per-device results the serving layer splices reports from, or
// the memoized contract generator whose NextHops slices the
// violations would otherwise alias.
func (r *Report) Violations() []Violation {
	var out []Violation
	for i := range r.Devices {
		for _, v := range r.Devices[i].Violations {
			out = append(out, v.Clone())
		}
	}
	return out
}

// Validator runs local validation: each device is checked against its own
// contracts in isolation, so devices can be validated in parallel and no
// global snapshot is ever formed (§2.4).
type Validator struct {
	// Checker is the verification engine; defaults to TrieChecker.
	Checker Checker
	// Workers is the parallelism degree; 0 means GOMAXPROCS, 1 models the
	// paper's single-CPU measurements.
	Workers int
	// Clock times the per-device and whole-run measurements; nil means
	// the system clock. Tests inject a clock.Virtual for reproducible
	// Elapsed fields.
	Clock clock.Clock
	// Metrics, when non-nil, receives per-device check latencies and
	// per-run counters (see NewMetrics). Instrumentation never alters
	// validation results.
	Metrics *Metrics
	// Tracer, when non-nil, records a span per validation run.
	Tracer *obs.Tracer
	// Contracts, when non-nil, supplies the generator ValidateAll uses
	// instead of building a transient one per run. Pair it with a
	// memoizing generator (EnableMemo) so repeated sweeps reuse the same
	// contract sets — one of the two ingredients of the zero-allocation
	// steady state the -benchmem gate locks.
	Contracts *contracts.Generator
	// Scratch, when non-nil and Workers is 1, switches ValidateAll to a
	// sequential path that reuses the scratch's backing arrays instead of
	// spinning up the channel worker pool: allocation-free once warm. The
	// returned report and its device slice are views into the scratch,
	// valid only until the next ValidateAll on the same validator.
	Scratch *Scratch
	// Runner, when non-nil, executes the work of ValidateAll,
	// ValidateScoped and ValidateDelta in place of the worker pool (and
	// of the Scratch path). The runner supplies the FIB sources itself,
	// so the source argument of those calls is unused.
	Runner Runner
}

// Runner executes the work of one validation run: it checks each scope
// with v.CheckScope against gen's contracts and a FIB source of its own,
// and returns the reports in ascending device order together with every
// per-device error (an errored device produces no report). The
// validator's own worker pool over the run's FIB source is the default
// runner; the shard coordinator (internal/shard) is the other, placing
// devices on validator shards that pull from their own sources.
type Runner interface {
	Run(v *Validator, facts *metadata.Facts, gen *contracts.Generator, work []Scope) ([]DeviceReport, []error)
}

// Scope is one device's share of a validation run: the device, and the
// prefixes whose contracts the run rechecks on it. Nil Prefixes means
// the whole device.
//
// A prefix scope is a promise about the device's table since the report
// the run splices into (the one internal/delta's blast radius gives):
// only entries whose prefix lies inside one of Prefixes were added,
// removed or rewritten, and the default entry did not change. Every
// contract that overlaps none of Prefixes — and every default contract —
// therefore keeps its verdict, and only the specific contracts
// overlapping them are rechecked.
type Scope struct {
	Device   topology.DeviceID
	Prefixes []ipnet.Prefix
}

// WholeDevices returns one whole-device scope per device.
func WholeDevices(devs []topology.DeviceID) []Scope {
	out := make([]Scope, len(devs))
	for i, d := range devs {
		out[i] = Scope{Device: d}
	}
	return out
}

// rechecks reports whether a scoped run rechecks contract c: a specific
// contract overlapping the scope (the contracts DeviceContracts.Scoped
// selects). The verdict of any other contract reads only entries the
// scope promises unchanged.
func rechecks(c *contracts.Contract, ps []ipnet.Prefix) bool {
	return c.Kind == contracts.Specific && c.Prefix.OverlapsAny(ps)
}

// Scratch holds the reusable backing arrays of the sequential
// ValidateAll path. One scratch serves one validator at a time.
type Scratch struct {
	reps []DeviceReport
	errs []error
	rep  Report
}

func (v *Validator) checker() Checker {
	if v.Checker != nil {
		return v.Checker
	}
	return TrieChecker{}
}

// ValidateDevice checks one device's table against its contracts.
func (v *Validator) ValidateDevice(facts *metadata.Facts, tbl *fib.Table, dc contracts.DeviceContracts) (DeviceReport, error) {
	df := facts.Device(dc.Device)
	start := clock.Or(v.Clock).Now()
	viols, err := v.checker().CheckDevice(tbl, dc, df.Role)
	if err != nil {
		return DeviceReport{}, err
	}
	rep := DeviceReport{
		Device: dc.Device, Name: df.Name, Role: df.Role,
		Contracts: len(dc.Contracts), Violations: viols,
		Elapsed: clock.Since(v.Clock, start),
	}
	v.Metrics.observeDevice(&rep)
	return rep, nil
}

// CheckScope pulls and checks one scope of a run. A whole scope is
// ValidateDevice over src's table. A prefix scope checks only the
// device's specific contracts that overlap the scope
// (Generator.ForDeviceScoped), against the table restricted to the
// default entry and the entries overlapping those contracts
// (fib.PullOverlapping) — exact, because a specific contract's verdict
// reads nothing else. Its report's Contracts and Violations count and
// hold those contracts alone, and its Elapsed is the scoped check's
// time; ValidateScoped splices it into the previous report.
func (v *Validator) CheckScope(facts *metadata.Facts, gen *contracts.Generator, src fib.Source, sc Scope) (DeviceReport, error) {
	if sc.Prefixes == nil {
		tbl, err := src.Table(sc.Device)
		if err != nil {
			return DeviceReport{}, fmt.Errorf("rcdc: pulling table for device %d: %w", sc.Device, err)
		}
		return v.ValidateDevice(facts, tbl, gen.ForDevice(sc.Device))
	}
	df := facts.Device(sc.Device)
	sub, ps := gen.ForDeviceScoped(sc.Device, sc.Prefixes)
	rep := DeviceReport{Device: sc.Device, Name: df.Name, Role: df.Role, Contracts: len(sub.Contracts)}
	if len(sub.Contracts) > 0 {
		tbl, err := fib.PullOverlapping(src, sc.Device, ps)
		if err != nil {
			return DeviceReport{}, fmt.Errorf("rcdc: pulling table for device %d: %w", sc.Device, err)
		}
		start := clock.Or(v.Clock).Now()
		rep.Violations, err = v.checker().CheckDevice(tbl, sub, df.Role)
		if err != nil {
			return DeviceReport{}, err
		}
		rep.Elapsed = clock.Since(v.Clock, start)
	}
	v.Metrics.observeDevice(&rep)
	return rep, nil
}

func (v *Validator) workers() int {
	if v.Workers > 0 {
		return v.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runSet runs one run's work through the Runner, or else through the
// worker pool, checking each scope against gen's contracts and the
// source's FIBs. It returns the per-device reports in ascending device
// order together with every per-device error (the two are disjoint: an
// errored device produces no report).
func (v *Validator) runSet(facts *metadata.Facts, gen *contracts.Generator,
	source fib.Source, work []Scope) ([]DeviceReport, []error) {
	if v.Runner != nil {
		return v.Runner.Run(v, facts, gen, work)
	}
	type result struct {
		rep DeviceReport
		err error
	}
	scopes := make(chan Scope)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < v.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sc := range scopes {
				rep, err := v.CheckScope(facts, gen, source, sc)
				results <- result{rep: rep, err: err}
			}
		}()
	}
	go func() {
		for _, sc := range work {
			scopes <- sc
		}
		close(scopes)
		wg.Wait()
		close(results)
	}()

	var reps []DeviceReport
	var errs []error
	for r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		reps = append(reps, r.rep)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Device < reps[j].Device })
	return reps, errs
}

// ValidateAll checks every device, pulling each FIB from the source and
// generating its contracts on the fly. FIBs are not retained: memory stays
// O(one device) per worker regardless of datacenter size.
//
// Per-device failures degrade rather than abort: the returned report
// covers every device that validated, alongside an errors.Join of the
// devices that did not — mirroring the monitor's graceful-degradation
// policy. Callers that need all-or-nothing semantics should treat a
// non-nil error as fatal; callers that can tolerate partial coverage get
// the partial report either way.
func (v *Validator) ValidateAll(facts *metadata.Facts, source fib.Source) (*Report, error) {
	sp := v.Tracer.Start("rcdc.ValidateAll")
	defer sp.End()
	if v.Scratch != nil && v.Runner == nil && v.workers() == 1 {
		return v.validateAllSeq(facts, source)
	}
	start := clock.Or(v.Clock).Now()
	work := make([]Scope, len(facts.Devices))
	for i := range facts.Devices {
		work[i] = Scope{Device: facts.Devices[i].ID}
	}
	reps, errs := v.runSet(facts, v.gen(facts), source, work)
	rep := &Report{Workers: v.workers(), Devices: reps}
	for i := range reps {
		rep.Checked += reps[i].Contracts
		rep.Failures += len(reps[i].Violations)
	}
	rep.Elapsed = clock.Since(v.Clock, start)
	v.Metrics.observeRun("full", rep, len(work), busyTime(reps))
	return rep, errors.Join(errs...)
}

func (v *Validator) gen(facts *metadata.Facts) *contracts.Generator {
	if v.Contracts != nil {
		return v.Contracts
	}
	return contracts.NewGenerator(facts)
}

// validateAllSeq is the sequential twin of ValidateAll for Workers==1
// with a Scratch: no channels, no goroutines, no per-run slices. Device
// results land directly in scratch order — facts.Devices is ascending by
// ID, so the report order matches the worker-pool path's sorted order
// and the two paths stay byte-identical (the sort below only runs for
// sources that renumber devices).
func (v *Validator) validateAllSeq(facts *metadata.Facts, source fib.Source) (*Report, error) {
	start := clock.Or(v.Clock).Now()
	gen := v.gen(facts)
	s := v.Scratch
	s.reps = s.reps[:0]
	s.errs = s.errs[:0]
	sorted := true
	for i := range facts.Devices {
		id := facts.Devices[i].ID
		tbl, err := source.Table(id)
		if err != nil {
			s.errs = append(s.errs, fmt.Errorf("rcdc: pulling table for device %d: %w", id, err))
			continue
		}
		dr, err := v.ValidateDevice(facts, tbl, gen.ForDevice(id))
		if err != nil {
			s.errs = append(s.errs, err)
			continue
		}
		if n := len(s.reps); n > 0 && s.reps[n-1].Device > dr.Device {
			sorted = false
		}
		s.reps = append(s.reps, dr)
	}
	if !sorted {
		sort.Slice(s.reps, func(i, j int) bool { return s.reps[i].Device < s.reps[j].Device })
	}
	rep := &s.rep
	*rep = Report{Workers: 1, Devices: s.reps}
	for i := range s.reps {
		rep.Checked += s.reps[i].Contracts
		rep.Failures += len(s.reps[i].Violations)
	}
	rep.Elapsed = clock.Since(v.Clock, start)
	v.Metrics.observeRun("full", rep, len(facts.Devices), busyTime(s.reps))
	return rep, errors.Join(s.errs...)
}

// ValidateDelta revalidates the dirty devices whole (a blast-radius set
// from internal/delta) and splices the fresh results into prev, carrying
// every other device's result forward unchanged: ValidateScoped with a
// whole-device scope per dirty device.
func (v *Validator) ValidateDelta(prev *Report, facts *metadata.Facts, gen *contracts.Generator,
	source fib.Source, dirty []topology.DeviceID) (*Report, error) {
	return v.ValidateScoped(prev, facts, gen, source, WholeDevices(dirty))
}

// ValidateScoped revalidates only the dirty scopes and splices the fresh
// results into prev, carrying every other device's result forward
// unchanged: a whole scope replaces the device's result, a prefix scope
// replaces the violations of the contracts it rechecked, in contract
// order, and the check time (see Scope). The spliced report keeps the sorted-by-device
// order, so a delta report over an accurate dirty set is byte-identical
// to a from-scratch full sweep under a fixed clock — the determinism
// invariant the equivalence tests lock. A prefix scope on a device prev
// has no result for is checked whole.
//
// prev must be a complete report over the same device set (typically from
// ValidateAll or an earlier delta run); it is not mutated. gen may be
// nil for a transient generator, or a shared memoizing generator to
// amortize contract generation across repeated delta validations.
// Per-device failures degrade as in ValidateAll: a failed dirty device
// keeps its previous result, and the error return enumerates the failures.
func (v *Validator) ValidateScoped(prev *Report, facts *metadata.Facts, gen *contracts.Generator,
	source fib.Source, dirty []Scope) (*Report, error) {
	if prev == nil {
		return nil, fmt.Errorf("rcdc: ValidateDelta requires a previous report")
	}
	sp := v.Tracer.Start("rcdc.ValidateDelta")
	defer sp.End()
	start := clock.Or(v.Clock).Now()
	if gen == nil {
		gen = v.gen(facts)
	}
	pos := make(map[topology.DeviceID]int, len(prev.Devices))
	for i := range prev.Devices {
		pos[prev.Devices[i].Device] = i
	}
	work := slices.Clone(dirty)
	scoped := make(map[topology.DeviceID][]ipnet.Prefix)
	for i := range work {
		sc := &work[i]
		if sc.Prefixes == nil {
			continue
		}
		if _, ok := pos[sc.Device]; !ok {
			sc.Prefixes = nil
			continue
		}
		scoped[sc.Device] = sc.Prefixes
	}
	fresh, errs := v.runSet(facts, gen, source, work)

	rep := &Report{Workers: v.workers()}
	rep.Devices = append([]DeviceReport(nil), prev.Devices...)
	for _, fr := range fresh {
		i, ok := pos[fr.Device]
		switch {
		case !ok:
			rep.Devices = append(rep.Devices, fr)
		case scoped[fr.Device] != nil:
			d, dr := fr.Device, &rep.Devices[i]
			dr.Violations = SpliceScoped(dr.Violations, fr.Violations, scoped[d],
				func() contracts.DeviceContracts { return gen.ForDevice(d) })
			dr.Elapsed = fr.Elapsed
		default:
			rep.Devices[i] = fr
		}
	}
	sort.Slice(rep.Devices, func(i, j int) bool { return rep.Devices[i].Device < rep.Devices[j].Device })
	for i := range rep.Devices {
		rep.Checked += rep.Devices[i].Contracts
		rep.Failures += len(rep.Devices[i].Violations)
	}
	rep.Elapsed = clock.Since(v.Clock, start)
	v.Metrics.observeRun("delta", rep, len(dirty), busyTime(fresh))
	return rep, errors.Join(errs...)
}

// SpliceScoped returns a device's violations after a recheck scoped to
// ps: prev's violations of the contracts the scope did not recheck, and
// fresh (the violations of the rechecked contracts, DeviceContracts
// Scoped(ps), in contract order), merged into the order of the device's
// contracts — the order every checker reports in. contractsOf returns
// the device's full contract set; it is called only when both sides hold
// violations. Each contract contributes one contiguous run, and
// identical contracts identical runs, so a contract's run length is its
// key's violation count over the key's copies.
func SpliceScoped(prev, fresh []Violation, ps []ipnet.Prefix, contractsOf func() contracts.DeviceContracts) []Violation {
	var kept []Violation
	for i := range prev {
		if !rechecks(&prev[i].Contract, ps) {
			kept = append(kept, prev[i])
		}
	}
	switch {
	case len(fresh) == 0:
		return kept
	case len(kept) == 0:
		return fresh
	}
	// Only contracts sharing a kind and prefix with some violation can
	// own a run; the rest are skipped without building their key.
	type kindPrefix struct {
		kind   contracts.Kind
		prefix ipnet.Prefix
	}
	failing := make(map[kindPrefix]bool)
	count := make(map[string]int)
	for _, vs := range [][]Violation{kept, fresh} {
		for i := range vs {
			c := &vs[i].Contract
			failing[kindPrefix{c.Kind, c.Prefix}] = true
			count[contractKey(c)]++
		}
	}
	dc := contractsOf()
	copies := make(map[string]int)
	for i := range dc.Contracts {
		if c := &dc.Contracts[i]; failing[kindPrefix{c.Kind, c.Prefix}] {
			copies[contractKey(c)]++
		}
	}
	out := make([]Violation, 0, len(kept)+len(fresh))
	for i := range dc.Contracts {
		c := &dc.Contracts[i]
		if !failing[kindPrefix{c.Kind, c.Prefix}] {
			continue
		}
		from := &kept
		if rechecks(c, ps) {
			from = &fresh
		}
		k := contractKey(c)
		n := min(count[k]/copies[k], len(*from))
		out = append(out, (*from)[:n]...)
		*from = (*from)[n:]
	}
	return append(append(out, kept...), fresh...)
}

// contractKey renders a contract's identity within one device: kind,
// prefix and expected next hops.
func contractKey(c *contracts.Contract) string {
	return fmt.Sprint(c.Kind, c.Prefix, c.NextHops)
}
