package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the program must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// namedMetrics are the workload-specific end-to-end metrics each run
// prints by name and records.
var namedMetrics = map[string][]string{
	"sweep":  {"sweep_ms_p50"},
	"churn":  {"revalidate_ms_p50"},
	"serve":  {"read_ms_p50", "read_ms_p99", "fresh_ms_p50"},
	"policy": {"check_ms_p50"},
}

// opMetric is the named metric each workload's op_ms_p50 carries.
var opMetric = map[string]string{
	"sweep":  "sweep_ms_p50",
	"churn":  "revalidate_ms_p50",
	"serve":  "fresh_ms_p50",
	"policy": "check_ms_p50",
}

// activeLayers are per-layer metrics that must be non-zero on a workload
// because its traced phase runs that layer.
var activeLayers = map[string][]string{
	"sweep": {"topology.build_ms", "metadata.facts_ms", "contracts.gen_ms", "contracts.count",
		"bgp.table_ms", "bgp.tables", "bgp.entries", "rcdc.check_ms", "rcdc.devices",
		"rcdc.violations", "rcdc.self_ms", "runtime.alloc_mb"},
	"churn": {"topology.build_ms", "metadata.facts_ms", "bgp.table_ms", "bgp.tables",
		"bgp.cache_misses", "rcdc.check_ms", "rcdc.devices", "rcdc.self_ms",
		"delta.compute_ms", "delta.dirty_devices", "delta.changed_ratio",
		"pec.detaches", "pec.atomize_ms", "engine.apply_ms", "runtime.alloc_mb"},
	"serve": {"topology.build_ms", "metadata.facts_ms", "bgp.cache_hits", "bgp.cache_misses",
		"delta.compute_ms", "delta.dirty_devices", "engine.apply_ms",
		"engine.report_refreshes", "engine.snapshot_rebuilds", "engine.blocked_ms",
		"serve.device_ms_p50", "serve.reach_ms_p50", "serve.summary_ms_p50",
		"loadgen.late_ms_p99", "runtime.alloc_mb"},
	"policy": {"acl.parse_ms", "acl.rules", "secguru.check_ms", "secguru.contracts", "runtime.alloc_mb"},
}

func tinyConfig(t *testing.T, w string, trace bool) config {
	return config{workload: w, seed: 7, seconds: 0.3, trace: trace, tiny: true, out: t.TempDir()}
}

// readRecord loads the run record a run wrote.
func readRecord(t *testing.T, cfg config) map[string]json.RawMessage {
	t.Helper()
	name := cfg.workload + "-seed7-trace0.json"
	if cfg.trace {
		name = cfg.workload + "-seed7-trace1.json"
	}
	data, err := os.ReadFile(filepath.Join(cfg.out, name))
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestEveryMetricPrinted runs every workload on the tiny fleet, untraced
// and traced, and checks the printed metrics against BENCHMARK.json, the
// workload's own named metrics, the recorded host facts, and that the
// traced counts repeat exactly between two runs.
func TestEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	for _, wl := range s.Workloads {
		w := wl.Name
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w, false)
			res, err := run(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(s.EndToEnd) {
				t.Errorf("printed %d end-to-end metrics, BENCHMARK.json has %d", len(res.Metrics), len(s.EndToEnd))
			}
			for _, m := range s.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			rec := readRecord(t, cfg)
			var named map[string]metric
			if err := json.Unmarshal(rec["named_metrics"], &named); err != nil {
				t.Fatal(err)
			}
			want := append([]string{"setup_s", "peak_rss_mb", "fail_ratio"}, namedMetrics[w]...)
			for _, n := range want {
				if m, ok := named[n]; !ok || m.Unit == "" {
					t.Errorf("named metric %s missing or without unit: %+v", n, m)
				}
			}
			if got, want := res.Metrics["op_ms_p50"], named[opMetric[w]]; got != want {
				t.Errorf("op_ms_p50 = %+v, want %s = %+v", got, opMetric[w], want)
			}
			var facts map[string]any
			if err := json.Unmarshal(rec["facts"], &facts); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"host_cpus", "gomaxprocs", "go_version", "seed"} {
				if _, ok := facts[k]; !ok {
					t.Errorf("record lacks host fact %s", k)
				}
			}

			var counts []map[string]metric
			for i := 0; i < 2; i++ {
				cfg := tinyConfig(t, w, true)
				res, err := run(cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("traced run %d not correct: %+v", i, res)
				}
				if len(res.Metrics) != len(s.PerLayer) {
					t.Errorf("printed %d per-layer metrics, BENCHMARK.json has %d", len(res.Metrics), len(s.PerLayer))
				}
				for j, m := range s.PerLayer {
					if perLayer[j].name != m.Name || perLayer[j].unit != m.Unit {
						t.Errorf("per-layer %d: program has %v, BENCHMARK.json %s %s", j, perLayer[j], m.Name, m.Unit)
					}
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				for _, n := range activeLayers[w] {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("per-layer %s = %v on %s, want > 0", n, res.Metrics[n].Value, w)
					}
				}
				c := map[string]metric{}
				for n, m := range res.Metrics {
					if m.Unit == "count" {
						c[n] = m
					}
				}
				counts = append(counts, c)
			}
			for n, m := range counts[0] {
				if counts[1][n] != m {
					t.Errorf("count %s differs between traced runs: %v vs %v", n, m.Value, counts[1][n].Value)
				}
			}
		})
	}
}

// TestGatesTrip gives every correctness gate a deliberately wrong
// reference and checks that it fails.
func TestGatesTrip(t *testing.T) {
	t.Run("sweep", func(t *testing.T) {
		w := newSweep(tinyConfig(t, "sweep", false))
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.op(); err != nil {
			t.Fatalf("correct references: %v", err)
		}
		good := w.wantDigest
		w.wantDigest = "0000000000000000"
		if _, err := w.op(); err == nil {
			t.Error("digest gate passed a wrong reference digest")
		}
		w.wantDigest = good
		w.wantViolators = w.wantViolators[1:]
		if _, err := w.op(); err == nil {
			t.Error("violator gate passed a wrong expected device set")
		}
	})
	t.Run("churn", func(t *testing.T) {
		w := newChurn(tinyConfig(t, "churn", false))
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.op(0); err != nil {
			t.Fatal(err)
		}
		w.baseDigest = "0000000000000000"
		if _, err := w.op(1); err == nil {
			t.Error("restore gate passed a wrong baseline digest")
		}
		w.fullRef = func() (string, error) { return "0000000000000000", nil }
		if err := w.finalGate(2); err == nil {
			t.Error("end-of-run gate passed a wrong from-scratch reference")
		}
	})
	t.Run("serve", func(t *testing.T) {
		w := newServe(tinyConfig(t, "serve", false))
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		dev := event{method: http.MethodGet, kind: "device", target: "/device?name=" + w.names[0]}
		code, body, _ := w.do(nil, dev.method, dev.target)
		if _, err := w.gate(&readerState{}, dev, code, body); err != nil {
			t.Fatalf("correct references: %v", err)
		}
		if _, err := w.gate(&readerState{}, dev, http.StatusNotFound, body); err == nil {
			t.Error("status gate passed a 404")
		}
		if _, err := w.gate(&readerState{}, dev, code, []byte("{")); err == nil {
			t.Error("parse gate passed a truncated body")
		}
		if _, err := w.gate(&readerState{lastGen: 1 << 40}, dev, code, body); err == nil {
			t.Error("generation gate passed a generation going back")
		}
		w.baseline[dev.target] = `{"device":"wrong"}`
		if _, err := w.gate(&readerState{}, dev, code, body); err == nil {
			t.Error("baseline gate passed a wrong baseline answer")
		}
	})
	t.Run("policy", func(t *testing.T) {
		w := newPolicy(tinyConfig(t, "policy", false))
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		for k := range w.texts {
			if _, err := w.op(k); err != nil {
				t.Fatalf("correct references: %v", err)
			}
		}
		w.want[1] = nil
		if _, err := w.op(1); err == nil {
			t.Error("verdict gate passed a mutant expected to be clean")
		}
		w.want[0] = []string{"anti-spoof"}
		if _, err := w.op(0); err == nil {
			t.Error("verdict gate passed a clean ACL expected to fail")
		}
	})
}
