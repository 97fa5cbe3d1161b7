package shard

import (
	"strconv"
	"time"

	"dcvalidate/internal/obs"
)

// Metrics is the coordinator instrumentation bundle. All recording
// methods are nil-receiver-safe no-ops, matching the other subsystem
// bundles.
type Metrics struct {
	steals       *obs.Counter      // dcv_shard_steals_total
	devices      *obs.GaugeVec     // dcv_shard_devices{shard}
	shardSeconds *obs.HistogramVec // dcv_shard_partial_seconds{shard}
}

// NewMetrics registers the coordinator metric families in r and returns
// the recording handles. Idempotent, like every bundle constructor.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		steals: r.Counter("dcv_shard_steals_total",
			"Work chunks executed by a worker other than the owning shard's."),
		devices: r.GaugeVec("dcv_shard_devices",
			"Devices assigned to each shard by the consistent-hash ring.", "shard"),
		shardSeconds: r.HistogramVec("dcv_shard_partial_seconds",
			"Per-shard busy time within a sweep.", obs.LatencyBuckets, "shard"),
	}
}

func (m *Metrics) observeAssignment(shard, devices int) {
	if m != nil {
		m.devices.With(strconv.Itoa(shard)).Set(float64(devices))
	}
}

func (m *Metrics) steal() {
	if m != nil {
		m.steals.Inc()
	}
}

func (m *Metrics) observeShard(shard int, d time.Duration) {
	if m != nil {
		m.shardSeconds.With(strconv.Itoa(shard)).ObserveDuration(d)
	}
}
