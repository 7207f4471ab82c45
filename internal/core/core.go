// Package core implements the paper's primary contribution: the generalized
// network resource monitor architecture of §4.1 (Figure 2).
//
// A monitor has three components: network sensors that collect performance
// data, a sensor director that drives collection in response to resource
// manager requests, and a measurement database that supports both
// current-value and last-known-value reporting. The resource manager
// submits a list of application-level paths and the metrics to monitor for
// each; the monitor reports (path, metric)-tuples back synchronously
// (Query) or asynchronously (Reports).
//
// This package holds the director and the database (DirectorBase,
// Database) and the Monitor interface the resource manager sees. Sensors
// are concrete, in the instantiations below; there is no sensor interface
// here, because nothing would call through it.
//
// Two instantiations live in sibling packages: hifi (the NTTCP-based
// high-fidelity monitor of §5.1) and cots (the SNMP/RMON-based scalable
// monitor of §5.2); hybrid combines them (§7).
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// ProcessRef names an application process on a host — the unit the dynamic
// path abstraction of [2] is built from.
type ProcessRef struct {
	Host    netsim.Addr
	Process string
}

// String renders host/process.
func (r ProcessRef) String() string {
	if r.Process == "" {
		return string(r.Host)
	}
	return string(r.Host) + "/" + r.Process
}

// PathID identifies a path; it is derived from the hop list.
type PathID string

// Path is an ordered series of application processes whose communications
// are critical to the system (§3). Two processes make a point-to-point
// path; longer chains are composed of adjacent segments.
type Path struct {
	ID   PathID
	Hops []ProcessRef
}

// NewPath builds a path and derives its ID.
func NewPath(hops ...ProcessRef) Path {
	parts := make([]string, len(hops))
	for i, h := range hops {
		parts[i] = h.String()
	}
	return Path{ID: PathID(strings.Join(parts, "->")), Hops: hops}
}

// Valid reports whether the path has at least two hops.
func (p Path) Valid() bool { return len(p.Hops) >= 2 }

// CrossProductPaths builds the Figure 4(b) path list: one path from every
// server to every client, C·S paths in total.
func CrossProductPaths(servers, clients []ProcessRef) []Path {
	paths := make([]Path, 0, len(servers)*len(clients))
	for _, s := range servers {
		for _, c := range clients {
			paths = append(paths, NewPath(s, c))
		}
	}
	return paths
}

// Quality grades a measurement's accuracy component of fidelity (§4.4):
// sensors at the Application & Support layer measure the metric directly;
// Transfer or Media layer sensors only approximate it (§4.3).
type Quality int

// Measurement qualities.
const (
	// QualityDirect marks application-layer measurement.
	QualityDirect Quality = iota
	// QualityApproximate marks lower-layer approximation (counter deltas,
	// utilization).
	QualityApproximate
)

func (q Quality) String() string {
	if q == QualityApproximate {
		return "approximate"
	}
	return "direct"
}

// Measurement is one (path, metric)-tuple as delivered to the resource
// manager.
type Measurement struct {
	Path    PathID
	Metric  metrics.Metric
	Value   float64
	Quality Quality
	// TakenAt is the virtual time the data was collected; its age is the
	// senescence component of fidelity.
	TakenAt time.Duration
	// Err, when non-empty, marks a failed collection; Value is undefined.
	Err string
}

// OK reports whether the collection succeeded.
func (m Measurement) OK() bool { return m.Err == "" }

// Reached interprets a reachability measurement.
func (m Measurement) Reached() bool {
	return m.Metric == metrics.Reachability && m.OK() && m.Value >= 0.5
}

func (m Measurement) String() string {
	if !m.OK() {
		return fmt.Sprintf("(%s, %s) = error: %s", m.Path, m.Metric, m.Err)
	}
	return fmt.Sprintf("(%s, %s) = %g %s [%s @%v]", m.Path, m.Metric, m.Value,
		m.Metric.Unit(), m.Quality, m.TakenAt)
}

// ReportMode selects how results flow back to the resource manager (§4.1:
// "synchronously or asynchronously").
type ReportMode int

// Report modes.
const (
	// ReportOnDemand records into the database only; the manager pulls
	// current or last-known values with Query.
	ReportOnDemand ReportMode = iota
	// ReportAsync additionally streams every measurement to Reports.
	ReportAsync
)

// Request is the resource manager's monitoring order: the paths to watch
// and the metrics wanted for each (§4.1).
type Request struct {
	Paths   []Path
	Metrics []metrics.Metric
	Mode    ReportMode
}

// Monitor is the resource manager's view of a network resource monitor.
type Monitor interface {
	// Submit installs a monitoring request, replacing the previous one.
	Submit(req Request)
	// Query returns the current value from the database (which may be a
	// failed measurement) — current-value reporting.
	Query(path PathID, metric metrics.Metric) (Measurement, bool)
	// LastKnown returns the most recent successful measurement —
	// last-known-value reporting.
	LastKnown(path PathID, metric metrics.Metric) (Measurement, bool)
	// Reports returns the asynchronous (path, metric)-tuple stream.
	Reports() *sim.Queue[Measurement]
	// Stop ceases collection.
	Stop()

	FreshQuerier
	QuantileQuerier
	SketchMerger
}

// FreshQuerier is the senescence-aware part of Monitor: QueryFresh answers
// like Query, but reports ok=false when the database's entry has been
// marked stale by a senescence watchdog or is older than ttl at virtual
// time now.
type FreshQuerier interface {
	QueryFresh(path PathID, metric metrics.Metric, now, ttl time.Duration) (Measurement, bool)
}

// QuantileQuerier is the streaming-analytics part of Monitor: it answers
// distributional queries (p-quantiles and full digests) from
// bounded-memory per-series sketches instead of scanning history; ok is
// false until the database has sketches enabled (see
// Database.EnableSketches).
type QuantileQuerier interface {
	Quantile(path PathID, metric metrics.Metric, p float64) (float64, bool)
	QuantileSummary(path PathID, metric metrics.Metric) (sketch.Summary, bool)
}

// SketchMerger exports a series' quantile sketch by folding it into the
// caller's accumulator — the primitive hierarchical directors federate
// on. Implementations must not mutate their own sketch.
type SketchMerger interface {
	MergeSketchInto(dst *sketch.Sketch, path PathID, metric metrics.Metric) bool
}
