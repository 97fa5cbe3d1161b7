// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload per process against the validation stack's public
// entry points, checks every operation's output, and prints the result
// as one JSON line:
//
//	perfbench -workload sweep|churn|serve|policy -seed N -seconds S -trace 0|1
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1
// the run additionally replays a fixed-size prefix of the same operation
// sequence with every layer wrapped and timed from outside the program,
// and the JSON carries the per-layer metrics instead. README.md explains
// the workloads, the metrics and the measured noise; run.sh builds the
// binary and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"dcvalidate/internal/clock"
)

// setupSamples is how many fresh processes measure set-up time in a
// measuring run: the run's own process plus setupSamples-1 set-up-only
// children. setup_s is their median.
const setupSamples = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // self-test fleet and ACL sizes; set only by the tests
	out      string
}

// benchWorkload is one benchmark workload. setup builds the program state and
// warms it up (timed as setup_s); measure runs the timed operations for
// the given duration and the end-of-run gates; traced replays a fixed
// prefix of the same operation sequence on fresh state with every layer
// wrapped.
type benchWorkload interface {
	setup() error
	measure(seconds float64) *phase
	traced(tr *tracer, untracedP50 float64) (map[string]float64, error)
	// facts returns the workload's input facts for the output record.
	facts() map[string]any
}

// phase is the outcome of one measured phase.
type phase struct {
	samples   []float64          // operation latencies, ms, in issue order
	op        string             // the named metric op_ms_p50 carries
	attempted int                // operations plus end-of-run checks
	failed    int                // errored or failed their correctness gate
	named     map[string]metric  // the workload's own end-to-end metrics
	errs      []string           // first few gate failures, for the record
	extra     map[string]float64 // workload-specific detail for the record
}

// check counts one attempted operation or check and records its
// failure, if any (the first ten messages are kept for the record).
func (p *phase) check(err error) {
	p.attempted++
	if err == nil {
		return
	}
	p.failed++
	if len(p.errs) < 10 {
		p.errs = append(p.errs, err.Error())
	}
}

func newWorkload(cfg config) (benchWorkload, error) {
	switch cfg.workload {
	case "sweep":
		return newSweep(cfg), nil
	case "churn":
		return newChurn(cfg), nil
	case "serve":
		return newServe(cfg), nil
	case "policy":
		return newPolicy(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep, churn, serve or policy)", cfg.workload)
}

func main() {
	var cfg config
	var traceFlag int
	setupOnly := flag.Bool("setup-only", false, "set up once, print {\"setup_s\": x} and exit")
	flag.StringVar(&cfg.workload, "workload", "", "sweep, churn, serve or policy")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured duration")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from a traced replay")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for the run record and spans")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *setupOnly {
		w, err := newWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		s, err := timedSetup(w)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("{\"setup_s\": %v}\n", s)
		return
	}
	samples := 1
	if !cfg.trace {
		samples = setupSamples
	}
	res, err := run(cfg, samples)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// timedSetup runs one set-up from a collected heap, as a fresh process
// would see it, and returns its duration in seconds.
func timedSetup(w benchWorkload) (float64, error) {
	runtime.GC()
	clk := clock.System{}
	start := clk.Now()
	if err := w.setup(); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	return clock.Since(clk, start).Seconds(), nil
}

// run performs one benchmark run: set-up samples from child processes,
// then set-up, measurement and (with cfg.trace) the traced replay in this
// process. setupRuns counts this process's own set-up; values above 1
// spawn setupRuns-1 set-up-only children of the running executable.
func run(cfg config, setupRuns int) (*result, error) {
	var setups []float64
	for i := 1; i < setupRuns; i++ {
		s, err := childSetup(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	s, err := timedSetup(w)
	if err != nil {
		return nil, err
	}
	setups = append(setups, s)
	ph := w.measure(cfg.seconds)
	if len(ph.samples) == 0 {
		return nil, errors.New("no operation completed")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	p50 := percentile(ph.samples, 50)
	op := ph.named[ph.op]
	if op.Value <= 0 {
		return nil, fmt.Errorf("no %s measured", ph.op)
	}
	named := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {rss, "MB"},
		"fail_ratio":  {float64(ph.failed) / float64(ph.attempted), "ratio"},
	}
	for k, v := range ph.named {
		named[k] = v
	}
	res := &result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"setup_s":     named["setup_s"],
			"peak_rss_mb": named["peak_rss_mb"],
			"op_ms_p50":   op,
		},
	}
	var layers map[string]float64
	var spans *tracer
	if cfg.trace {
		spans = newTracer()
		layers, err = w.traced(spans, p50)
		if err != nil {
			res.Correct = false
			res.Failed++
			res.Attempted++
			ph.errs = append(ph.errs, "traced replay: "+err.Error())
		}
		res.Metrics = map[string]metric{}
		for _, pl := range perLayer {
			res.Metrics[pl.name] = metric{layers[pl.name], pl.unit}
		}
	}
	facts := hostFacts(cfg)
	for k, v := range w.facts() {
		facts[k] = v
	}
	printHuman(facts, named, ph, setups)
	if err := writeRecord(cfg, facts, named, ph, setups, res, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// childSetup measures one set-up in a fresh process.
func childSetup(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	var v struct {
		Setup float64 `json:"setup_s"`
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		return 0, fmt.Errorf("set-up child output: %w", err)
	}
	return v.Setup, nil
}

// hostFacts records what the numbers were measured on and the run's
// parameters; workloads add their input facts.
func hostFacts(cfg config) map[string]any {
	return map[string]any{
		"host_cpus":  runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"seed":       cfg.seed,
		"workload":   cfg.workload,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
}

// printHuman prints the run's facts and the workload's own end-to-end
// metrics by name with their units, ahead of the JSON line.
func printHuman(facts map[string]any, named map[string]metric, ph *phase, setups []float64) {
	keys := make([]string, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, facts[k])
	}
	fmt.Printf("facts:%s\n", b.String())
	fmt.Printf("operations: %d measured, %d attempted, %d failed; set-up samples %v s\n",
		len(ph.samples), ph.attempted, ph.failed, setups)
	names := make([]string, 0, len(named))
	for k := range named {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-20s %12.4f %s\n", k, named[k].Value, named[k].Unit)
	}
	for _, e := range ph.errs {
		fmt.Printf("gate failure: %s\n", e)
	}
}

// writeRecord writes the run's full record (and, when traced, its spans)
// under cfg.out; nothing else is written.
func writeRecord(cfg config, facts map[string]any, named map[string]metric, ph *phase,
	setups []float64, res *result, tr *tracer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"facts":          facts,
		"named_metrics":  named,
		"result":         res,
		"setup_samples":  setups,
		"op_samples_ms":  ph.samples,
		"gate_failures":  ph.errs,
		"workload_extra": ph.extra,
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, boolInt(cfg.trace))
	if err := writeJSON(filepath.Join(cfg.out, base+".json"), rec); err != nil {
		return err
	}
	if tr != nil {
		return writeJSON(filepath.Join(cfg.out, base+"-spans.json"), tr.spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
