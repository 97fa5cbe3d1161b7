package fib

import (
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// Source produces the FIB of any device in a datacenter. RCDC validates one
// device at a time and never materializes a global snapshot (§2.4), so the
// interface is deliberately per-device: implementations may compute tables
// lazily (the converged-state synthesizer) or serve them from a completed
// simulation (the EBGP simulator) or store (the monitoring pipeline).
type Source interface {
	Table(dev topology.DeviceID) (*Table, error)
}

// OverlapSource is a Source that can produce a device's table restricted
// to the entries overlapping a prefix set without building the whole
// table: the pull of a scoped delta check. TableOverlapping(dev, ps) must
// equal Table(dev) followed by Overlapping(ps), entry for entry.
type OverlapSource interface {
	Source
	TableOverlapping(dev topology.DeviceID, ps []ipnet.Prefix) (*Table, error)
}

// PullOverlapping returns dev's table restricted to its default entry and
// the entries overlapping ps: through src's own TableOverlapping when it
// is an OverlapSource, else by pulling the whole table and restricting it.
func PullOverlapping(src Source, dev topology.DeviceID, ps []ipnet.Prefix) (*Table, error) {
	if os, ok := src.(OverlapSource); ok {
		return os.TableOverlapping(dev, ps)
	}
	tbl, err := src.Table(dev)
	if err != nil {
		return nil, err
	}
	return tbl.Overlapping(ps), nil
}
