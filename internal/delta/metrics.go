package delta

import "dcvalidate/internal/obs"

// Metrics is the blast-radius instrumentation bundle. Compute and Since
// record one observation per call: the dirty-device count for bounded
// results, split by scope into whole devices and devices scoped to a
// prefix set, or a full-fallback counter tick when a rule or a truncated
// journal degrades to the whole-DC set. Nil-receiver safe.
type Metrics struct {
	dirty *obs.Histogram  // dcv_delta_blast_radius_devices
	scope *obs.CounterVec // dcv_delta_dirty_devices_total{scope}
	full  *obs.Counter    // dcv_delta_full_fallbacks_total
}

// NewMetrics registers the delta metric families in r. Idempotent per
// registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		dirty: r.Histogram("dcv_delta_blast_radius_devices",
			"Dirty devices per bounded blast-radius computation.", obs.SizeBuckets),
		scope: r.CounterVec("dcv_delta_dirty_devices_total",
			"Dirty devices across bounded blast radii, by scope: whole device or a prefix set.", "scope"),
		full: r.Counter("dcv_delta_full_fallbacks_total",
			"Blast-radius computations that degraded to the whole-DC set."),
	}
}

func (m *Metrics) observeSet(s *Set) {
	if m == nil {
		return
	}
	if s.full {
		m.full.Inc()
		return
	}
	m.dirty.Observe(float64(len(s.devs)))
	scoped := s.Scoped()
	m.scope.With("whole").Add(uint64(len(s.devs) - scoped))
	m.scope.With("prefix").Add(uint64(scoped))
}
