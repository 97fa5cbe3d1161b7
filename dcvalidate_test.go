package dcvalidate

import (
	"bytes"
	"strings"
	"testing"
)

func fig3DC(t *testing.T) *Datacenter {
	t.Helper()
	dc, err := NewDatacenter(Figure3Params())
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

func TestFacadeHealthyValidation(t *testing.T) {
	dc := fig3DC(t)
	for _, eng := range []Engine{EngineTrie, EngineSMT} {
		rep, err := dc.Validate(ValidateOptions{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failures != 0 {
			t.Errorf("engine %v: %d failures", eng, rep.Failures)
		}
	}
	fails, err := dc.CheckGlobalIntent()
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Errorf("global intent fails: %v", fails)
	}
}

func TestFacadeLinkFailureWorkflow(t *testing.T) {
	dc := fig3DC(t)
	if err := dc.FailLink("fig3-c0-t0-0", "fig3-c0-t1-2"); err != nil {
		t.Fatal(err)
	}
	if err := dc.ShutSession("fig3-c0-t0-0", "fig3-c0-t1-3"); err != nil {
		t.Fatal(err)
	}
	rep, err := dc.Validate(ValidateOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatal("failures not detected")
	}
	if rep.HighRisk() == 0 {
		t.Error("no high-risk violations for a doubly-degraded ToR")
	}
	// Errors for bogus device names.
	if err := dc.FailLink("nope", "fig3-c0-t1-0"); err == nil {
		t.Error("FailLink accepted unknown device")
	}
	if err := dc.FailLink("fig3-c0-t0-0", "fig3-c1-t0-0"); err == nil {
		t.Error("FailLink accepted non-adjacent pair")
	}
}

func TestFacadeBGPSimulationSource(t *testing.T) {
	dc := fig3DC(t)
	rep, err := dc.Validate(ValidateOptions{Source: dc.SimulateBGP()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Errorf("BGP-simulated healthy datacenter: %d failures", rep.Failures)
	}
}

func TestFacadeContractsAndFIB(t *testing.T) {
	dc := fig3DC(t)
	all := dc.Contracts()
	if len(all) != 20 {
		t.Errorf("contract sets = %d", len(all))
	}
	var buf bytes.Buffer
	if err := dc.WriteFIB(&buf, "fig3-c0-t0-0"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "B E 0.0.0.0/0") {
		t.Errorf("FIB text missing default route:\n%s", buf.String())
	}
	if err := dc.WriteFIB(&buf, "missing"); err == nil {
		t.Error("WriteFIB accepted unknown device")
	}
}

func TestFacadePipelineAndMonitor(t *testing.T) {
	dc := fig3DC(t)
	pipe := dc.NewPipeline()
	if pipe == nil || pipe.Production == nil {
		t.Fatal("pipeline not wired")
	}
	mon := dc.NewMonitor("inst-0")
	mon.Workers = 2
	stats, err := mon.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Devices != 20 || stats.Violations != 0 {
		t.Errorf("monitor stats = %+v", stats)
	}
}

func TestFacadeSecGuru(t *testing.T) {
	policy, err := ParseIOSACL("edge", strings.NewReader(
		"deny ip 10.0.0.0/8 any\npermit ip any 104.208.32.0/20\n"))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ParsePolicyContracts(strings.NewReader(`[
	  {"name":"private-isolated","expected":"deny","src":"10.0.0.0/8"},
	  {"name":"service-reachable","expected":"permit","src":"8.0.0.0/8","dst":"104.208.32.0/24"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckPolicy(policy, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("contracts failed: %+v", rep.Failed())
	}

	nsg, err := ParseNSG("nsg", strings.NewReader(`[
	  {"name":"deny-all","priority":100,"source":"*","sourcePorts":"*",
	   "destination":"*","destinationPorts":"*","protocol":"*","access":"Deny"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	eq, w, err := PoliciesEquivalent(policy, nsg)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("distinct policies reported equivalent")
	}
	ok1, _ := policy.Evaluate(w)
	ok2, _ := nsg.Evaluate(w)
	if ok1 == ok2 {
		t.Error("witness does not distinguish")
	}
}

func TestFacadeValidateOptionsExact(t *testing.T) {
	dc := fig3DC(t)
	// Degrade one specific route's redundancy without killing it: fail a
	// ToR uplink; under Exact the sibling ToR's specific contracts flag
	// missing hops, under the default subset semantics they do not.
	if err := dc.FailLink("fig3-c0-t0-0", "fig3-c0-t1-0"); err != nil {
		t.Fatal(err)
	}
	sub, err := dc.Validate(ValidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := dc.Validate(ValidateOptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Failures <= sub.Failures {
		t.Errorf("exact (%d) should flag more than subset (%d)", exact.Failures, sub.Failures)
	}
}

// TestSetDefaultEngineAfterSharding: the default engine is resolved per
// run, so SetDefaultEngine governs the next sharded serving refresh even
// when called after EnableSharding.
func TestSetDefaultEngineAfterSharding(t *testing.T) {
	dc := fig3DC(t)
	reg := dc.Metrics()
	dc.EnableSharding(2)
	dc.SetDefaultEngine(EnginePEC)
	s, err := dc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards != 2 || s.Devices != len(dc.Topo.Devices) {
		t.Fatalf("summary = %+v", s)
	}
	lookups := 0.0
	for _, smp := range reg.Snapshot() {
		if smp.Name == "dcv_pec_shape_total" {
			lookups += smp.Value
		}
	}
	if lookups != float64(len(dc.Topo.Devices)) {
		t.Fatalf("PEC shape lookups = %v, want one per device (%d): the sharded refresh did not run PEC",
			lookups, len(dc.Topo.Devices))
	}
}
