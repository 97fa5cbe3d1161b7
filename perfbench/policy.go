package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dcvalidate/internal/acl"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/secguru"
	"dcvalidate/internal/workload"
)

// policyTraceOps is the traced phase's size: ACLs parsed and checked.
const policyTraceOps = 8

// mutation is a rule that, inserted at the top of a first-applicable
// Edge ACL, breaks exactly one contract of workload.EdgeContracts. A
// permit breaks the deny contracts whose filters its traffic overlaps,
// so the permits below name a source disjoint from every other deny
// contract's (8.0.0.0/8 is outside the private and anti-spoof ranges); a
// deny breaks only permit contracts, and each deny below overlaps one.
type mutation struct {
	breaks string
	rule   acl.Rule
}

func mutations() []mutation {
	pfx := ipnet.MustParsePrefix
	rule := func(a acl.Action, proto acl.ProtoMatch, src, dst string, dport acl.PortRange) acl.Rule {
		var s, d ipnet.Prefix
		if src != "" {
			s = pfx(src)
		}
		if dst != "" {
			d = pfx(dst)
		}
		r := acl.NewRule(a, proto, s, d, acl.AnyPort, dport)
		r.Remark = "seeded mutant"
		return r
	}
	tcp := acl.Proto(acl.ProtoTCP)
	return []mutation{
		{"private-10-isolated", rule(acl.Permit, acl.AnyProto, "10.0.0.0/8", "", acl.AnyPort)},
		{"private-172-isolated", rule(acl.Permit, acl.AnyProto, "172.16.0.0/12", "", acl.AnyPort)},
		{"anti-spoof", rule(acl.Permit, acl.AnyProto, "104.208.32.0/20", "", acl.AnyPort)},
		{"services-80", rule(acl.Deny, tcp, "", "104.208.40.0/24", acl.Port(80))},
		{"services-443", rule(acl.Deny, tcp, "", "168.61.144.0/24", acl.Port(443))},
		{"smb-blocked", rule(acl.Permit, tcp, "8.0.0.0/8", "104.208.40.0/24", acl.Port(445))},
		{"proto-53-blocked", rule(acl.Permit, acl.Proto(53), "8.0.0.0/8", "168.61.144.0/24", acl.AnyPort)},
	}
}

// policy is the SecGuru workload: seeded Edge ACLs rendered to IOS text,
// each parsed and checked against the Edge contracts. Odd-numbered ACLs
// are mutants carrying one or two mutations; even ones are clean.
type policy struct {
	cfg       config
	texts     []string
	want      [][]string // failing contract names by construction, sorted
	rules     int
	contracts []secguru.Contract
}

func newPolicy(cfg config) *policy { return &policy{cfg: cfg} }

// generate builds the ACL texts and their expected verdicts.
func (w *policy) generate() error {
	n, params := 16, workload.EdgeACLParams{ServiceRules: 1600, DuplicateDenies: 200, ZeroDayDenies: 180}
	if w.cfg.tiny {
		n, params = 4, workload.EdgeACLParams{ServiceRules: 150, DuplicateDenies: 20, ZeroDayDenies: 20}
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	muts := mutations()
	w.contracts = workload.EdgeContracts()
	for i := 0; i < n; i++ {
		params.Seed = rng.Int63()
		pol := workload.GenerateLegacyEdgeACL(params)
		var want []string
		if i%2 == 1 {
			perm := rng.Perm(len(muts))[:1+rng.Intn(2)]
			var top []acl.Rule
			for _, m := range perm {
				top = append(top, muts[m].rule)
				want = append(want, muts[m].breaks)
			}
			pol.Rules = append(top, pol.Rules...)
			sort.Strings(want)
		}
		var b strings.Builder
		if err := acl.WriteIOS(&b, pol); err != nil {
			return err
		}
		w.texts = append(w.texts, b.String())
		w.want = append(w.want, want)
		w.rules += len(pol.Rules)
	}
	w.rules /= n
	return nil
}

func (w *policy) setup() error {
	if err := w.generate(); err != nil {
		return err
	}
	_, err := w.op(0)
	return err
}

// parseCheck parses ACL k and checks it, returning the sorted names of
// the failed contracts.
func (w *policy) parseCheck(k int, tr *tracer) ([]string, error) {
	var pol *acl.Policy
	var rep *secguru.Report
	var err error
	parse := func() { pol, err = acl.ParseIOS(fmt.Sprintf("edge-%d", k), strings.NewReader(w.texts[k%len(w.texts)])) }
	check := func() { rep, err = secguru.Check(pol, w.contracts) }
	if tr != nil {
		tr.program(func() { tr.timed("acl.parse", parse) })
	} else {
		parse()
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.add("acl.rules", float64(len(pol.Rules)))
		tr.program(func() { tr.timed("secguru.check", check) })
	} else {
		check()
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.add("secguru.contracts", float64(len(rep.Outcomes)))
	}
	var failed []string
	for _, o := range rep.Failed() {
		failed = append(failed, o.Contract.Name)
	}
	sort.Strings(failed)
	return failed, nil
}

// verdict compares a check's failed contracts with the construction.
func (w *policy) verdict(k int, failed []string) error {
	if want := w.want[k%len(w.want)]; !equalStrings(failed, want) {
		return fmt.Errorf("ACL %d: failed contracts %v, want %v", k, failed, want)
	}
	return nil
}

func (w *policy) op(k int) (float64, error) {
	sw := newStopwatch()
	failed, err := w.parseCheck(k, nil)
	ms := sw.ms()
	if err != nil {
		return ms, err
	}
	return ms, w.verdict(k, failed)
}

func (w *policy) measure(seconds float64) *phase {
	ph := closedLoop(seconds, 1, w.op)
	ph.named = map[string]metric{"check_ms_p50": {percentile(ph.samples, 50), "ms"}}
	ph.op = "check_ms_p50"
	return ph
}

func (w *policy) facts() map[string]any {
	return map[string]any{
		"acls":          len(w.texts),
		"acl_rules":     w.rules,
		"contracts":     len(w.contracts),
		"mutant_share":  "odd-numbered ACLs, 1-2 seeded mutations each",
		"rcdc_involved": false,
	}
}

// traced parses and checks the first policyTraceOps ACLs with each call
// timed as a span.
func (w *policy) traced(tr *tracer, untracedP50 float64) (map[string]float64, error) {
	ls := startLayers(policyTraceOps)
	var opMS []float64
	for k := 0; k < policyTraceOps; k++ {
		tr.setOp(k)
		var failed []string
		var err error
		opMS = append(opMS, tr.timed("policy.op", func() { failed, err = w.parseCheck(k, tr) }))
		if err != nil {
			return nil, err
		}
		if err := w.verdict(k, failed); err != nil {
			return nil, err
		}
	}
	ls.perOp("acl.parse_ms", tr.totalMS("acl.parse"))
	ls.perOp("acl.rules", tr.count("acl.rules"))
	ls.perOp("secguru.check_ms", tr.totalMS("secguru.check"))
	ls.perOp("secguru.contracts", tr.count("secguru.contracts"))
	return ls.finish(tr, percentile(opMS, 50), untracedP50), nil
}
