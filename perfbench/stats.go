package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcvalidate/internal/clock"
	"dcvalidate/internal/rcdc"
)

// percentile returns the p-th percentile of xs by linear interpolation
// between order statistics (xs is not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// deviceDigest renders the timing-free content of one device report.
func deviceDigest(d *rcdc.DeviceReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d\n", d.Name, d.Contracts)
	for _, v := range d.Violations {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// reportDigest hashes a report's devices, contract counts and rendered
// violations — everything but timings and the generation stamp.
func reportDigest(r *rcdc.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d\n", len(r.Devices), r.Checked, r.Failures)
	for i := range r.Devices {
		h.Write([]byte(deviceDigest(&r.Devices[i])))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// violators returns the sorted names of the devices with violations.
func violators(r *rcdc.Report) []string {
	var out []string
	for i := range r.Devices {
		if len(r.Devices[i].Violations) > 0 {
			out = append(out, r.Devices[i].Name)
		}
	}
	sort.Strings(out)
	return out
}

// peakRSSMB reads this process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// runtimeCounters reads the Go runtime's cumulative heap allocation
// (bytes) and GC CPU time (seconds).
func runtimeCounters() (allocBytes, gcCPUSeconds float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPUSeconds = s[1].Value.Float64()
	}
	return allocBytes, gcCPUSeconds
}

// equalStrings reports whether two sorted string lists are identical.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stopwatch times one operation on the system clock.
type stopwatch struct{ start time.Time }

func newStopwatch() stopwatch { return stopwatch{clock.System{}.Now()} }

func (s stopwatch) ms() float64 {
	return float64(clock.Since(clock.System{}, s.start)) / float64(time.Millisecond)
}

// closedLoop runs op back to back, each call starting when the previous
// one returns, until at least minOps operations ran and seconds elapsed.
// A failed gate still yields a latency sample.
func closedLoop(seconds float64, minOps int, op func(k int) (float64, error)) *phase {
	ph := &phase{}
	start := newStopwatch()
	for k := 0; k < minOps || start.ms() < seconds*1000; k++ {
		ms, err := op(k)
		ph.samples = append(ph.samples, ms)
		ph.check(err)
	}
	return ph
}
