package rcdc

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
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
	// Runner, when non-nil, executes the device sets of ValidateAll and
	// ValidateDelta in place of the worker pool (and of the Scratch
	// path). The runner pulls the tables itself, so the source argument
	// of those calls is unused.
	Runner Runner
}

// Runner executes one device set of a validation run: it pulls each
// device's table, checks it with v.ValidateDevice against gen's
// contracts, and returns the reports in ascending device order together
// with every per-device error (an errored device produces no report).
// The validator's own worker pool over the run's FIB source is the
// default runner; the shard coordinator (internal/shard) is the other,
// placing devices on validator shards that pull from their own sources.
type Runner interface {
	Run(v *Validator, facts *metadata.Facts, gen *contracts.Generator, devs []topology.DeviceID) ([]DeviceReport, []error)
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

func (v *Validator) workers() int {
	if v.Workers > 0 {
		return v.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// validateSet runs one device set through the Runner, or else through
// the worker pool, pulling each FIB from the source and validating it
// against gen's contracts. It returns the per-device reports in
// ascending device order together with every per-device error (the two
// are disjoint: an errored device produces no report).
func (v *Validator) validateSet(facts *metadata.Facts, gen *contracts.Generator,
	source fib.Source, devs []topology.DeviceID) ([]DeviceReport, []error) {
	if v.Runner != nil {
		return v.Runner.Run(v, facts, gen, devs)
	}
	type result struct {
		rep DeviceReport
		err error
	}
	ids := make(chan topology.DeviceID)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < v.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				tbl, err := source.Table(id)
				if err != nil {
					results <- result{err: fmt.Errorf("rcdc: pulling table for device %d: %w", id, err)}
					continue
				}
				rep, err := v.ValidateDevice(facts, tbl, gen.ForDevice(id))
				results <- result{rep: rep, err: err}
			}
		}()
	}
	go func() {
		for _, id := range devs {
			ids <- id
		}
		close(ids)
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
	devs := make([]topology.DeviceID, len(facts.Devices))
	for i := range facts.Devices {
		devs[i] = facts.Devices[i].ID
	}
	reps, errs := v.validateSet(facts, v.gen(facts), source, devs)
	rep := &Report{Workers: v.workers(), Devices: reps}
	for i := range reps {
		rep.Checked += reps[i].Contracts
		rep.Failures += len(reps[i].Violations)
	}
	rep.Elapsed = clock.Since(v.Clock, start)
	v.Metrics.observeRun("full", rep, len(devs), busyTime(reps))
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

// ValidateDelta revalidates only the dirty devices (a blast-radius set
// from internal/delta) and splices the fresh results into prev, carrying
// every other device's result forward unchanged. The spliced report keeps
// the sorted-by-device order, so a delta report over an accurate dirty set
// is byte-identical to a from-scratch full sweep under a fixed clock — the
// determinism invariant the equivalence test locks.
//
// prev must be a complete report over the same device set (typically from
// ValidateAll or an earlier ValidateDelta); it is not mutated. gen may be
// nil for a transient generator, or a shared memoizing generator to
// amortize contract generation across repeated delta validations.
// Per-device failures degrade as in ValidateAll: a failed dirty device
// keeps its previous result, and the error return enumerates the failures.
func (v *Validator) ValidateDelta(prev *Report, facts *metadata.Facts, gen *contracts.Generator,
	source fib.Source, dirty []topology.DeviceID) (*Report, error) {
	if prev == nil {
		return nil, fmt.Errorf("rcdc: ValidateDelta requires a previous report")
	}
	sp := v.Tracer.Start("rcdc.ValidateDelta")
	defer sp.End()
	start := clock.Or(v.Clock).Now()
	if gen == nil {
		gen = v.gen(facts)
	}
	fresh, errs := v.validateSet(facts, gen, source, dirty)

	rep := &Report{Workers: v.workers()}
	rep.Devices = append([]DeviceReport(nil), prev.Devices...)
	pos := make(map[topology.DeviceID]int, len(rep.Devices))
	for i := range rep.Devices {
		pos[rep.Devices[i].Device] = i
	}
	for _, fr := range fresh {
		if i, ok := pos[fr.Device]; ok {
			rep.Devices[i] = fr
		} else {
			rep.Devices = append(rep.Devices, fr)
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
