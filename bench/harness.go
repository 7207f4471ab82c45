package main

import (
	"fmt"
	"hash"
	"hash/crc32"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// ctx is what one iteration of a workload is given. The program under test
// receives only inputs generated from seed.
type ctx struct {
	seed  int64
	smoke bool    // smoke sizes: the same shape in ~100 ms, for go test
	tr    *tracer // nil on untraced iterations

	// Variants the per-layer ratios need; zero values are the workload as
	// named.
	shards    int  // wan-federation-2shard only: shard count (0 = 2)
	telemetry bool // cots-fleet-poll only: EnableTelemetry on

	// archiveBytes is the size of the results stream an earlier iteration
	// produced, so a traced iteration can keep the stream without growing
	// a buffer inside the timed run.
	archiveBytes int
}

// result is one iteration's measurements. Host-time fields differ run to
// run; everything in c, and digest, repeats exactly for a given seed.
type result struct {
	setupS   float64 // topology build + deploy + Submit/Start, up to the first RunUntil
	wallS    float64 // the timed run: RunUntil to the horizon + the final flush
	virtualS float64 // the horizon in simulated seconds
	samples  uint64  // Σ Database.Records over every member database
	attempts uint64  // operations the harness drove (records, traps, queries)
	mallocs  uint64  // runtime.MemStats.Mallocs over the timed run
	bytes    uint64  // runtime.MemStats.TotalAlloc over the timed run

	gcCycles    uint32
	gcPauseMS   float64
	heapInuseMB float64 // HeapInuse right after the timed run
	goroutines  int     // goroutines alive at the end of the timed run

	// digest folds the outcome (event count, Records, director Stats,
	// detect latency, results-stream checksum): any two iterations of one
	// workload at one seed must agree on it.
	digest string
	// c holds the exact counters and virtual-time outcomes by metric name.
	// Keys starting with "_" are op counts the share estimates need and no
	// metric reports.
	c map[string]float64
	// archive is the results stream, kept only on traced iterations.
	archive []byte
}

// faulted counts the operations that met one of the workload's injected
// faults, op_fail_frac's numerator: traps dropped or lost where the workload
// offers traps, else measurements recorded with Err. These are outcomes the
// inputs ask for, not failures of the program: the report's "failed" stays 0
// (an operation answered wrongly fails the whole run instead).
func (r *result) faulted() uint64 {
	if r.c["director.traps_in"] > 0 {
		return uint64(r.c["director.traps_dropped"] + r.c["_director.traps_lost"])
	}
	return uint64(r.c["_core.failed_records"])
}

// job is a workload after set-up: what the timed section runs, and how to
// read the outcome afterwards.
type job struct {
	horizon time.Duration
	// run advances the workload to virtual time t (sim workloads) or runs
	// the op loop up to t (db workloads), returning events/ops executed.
	run func(t time.Duration) int
	// flush drains the results seam; part of the timed run.
	flush func() error
	// collect reads counters and outcomes into r after timing stopped.
	collect func(r *result, events int)
	// close releases the kernel's procs.
	close func()
	// stream is the results sink's checksum, nil when the workload has no
	// results seam.
	stream *streamSum
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	why   string
	setup func(c *ctx) (*job, error)
	// variants are the altered iterations the traced run adds for this
	// workload's ratio metrics.
	variants []variant
	// checksTables marks the one workload whose traced run also regenerates
	// the quick experiment suite and checks its tables.
	checksTables bool
}

// variant is one altered iteration of a workload: how it differs, and the
// ratio metric its wall time yields against the workload as named.
type variant struct {
	metric string
	apply  func(c *ctx)
	// inverse takes workload / variant instead of variant / workload.
	inverse bool
	// same reports whether the variant reproduced the workload's outcome;
	// a variant that perturbs the outcome fails the run.
	same func(ref, v *result) bool
}

func sameDigest(ref, v *result) bool { return ref.digest == v.digest }

// traceSlices is how many equal RunUntil steps a traced iteration cuts the
// horizon into: 1200 leaves twelve samples beyond p99, the fewest the
// percentile rule accepts with a little room.
const traceSlices = 1200

// iterate runs one iteration of w: set-up, the timed run, collection.
func (w *workload) iterate(c *ctx) (*result, error) {
	runtime.GC() // every iteration starts from a collected heap
	iter := c.tr.begin("bench.iteration")
	defer c.tr.end(iter)

	sp := c.tr.begin("setup")
	t0 := time.Now()
	j, err := w.setup(c)
	setup := time.Since(t0)
	c.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer j.close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	events := 0
	t1 := time.Now()
	if c.tr == nil {
		events = j.run(j.horizon)
	} else {
		for i := 1; i <= traceSlices; i++ {
			s := c.tr.begin("sim.slice")
			events += j.run(j.horizon * time.Duration(i) / traceSlices)
			c.tr.end(s)
		}
	}
	fs := c.tr.begin("core.flush_results")
	err = j.flush()
	c.tr.end(fs)
	wall := time.Since(t1)
	goroutines := runtime.NumGoroutine()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: flush results: %w", w.name, err)
	}

	r := &result{
		setupS:      setup.Seconds(),
		wallS:       wall.Seconds(),
		virtualS:    j.horizon.Seconds(),
		mallocs:     m1.Mallocs - m0.Mallocs,
		bytes:       m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:    m1.NumGC - m0.NumGC,
		gcPauseMS:   float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		heapInuseMB: float64(m1.HeapInuse) / (1 << 20),
		goroutines:  goroutines,
		c:           make(map[string]float64),
	}
	j.collect(r, events)
	if wrong := r.c["_core.wrong_reads"]; wrong > 0 {
		return nil, fmt.Errorf("%s: %v reads answered wrongly", w.name, wrong)
	}
	if j.stream != nil {
		r.c["results.bytes"] = float64(j.stream.n)
		r.digest += fmt.Sprintf(" stream=%d/%08x", j.stream.n, j.stream.crc.Sum32())
		r.archive = j.stream.keep
	}
	r.digest = fmt.Sprintf("events=%d records=%d%s", events, r.samples, r.digest)
	return r, nil
}

// streamSum is the io.Writer behind the results sink: it counts and
// checksums the JSONL stream without keeping it, so the timed run pays for
// the encoding the program does and nothing else. CRC-32C is hardware
// assisted; hashing the stream with SHA-256 inside the timed run would cost
// more than some layers under test. Traced iterations also keep the bytes,
// for the reader span and the internal/results record digest.
type streamSum struct {
	n    int64
	crc  hash.Hash32
	keep []byte
	save bool
}

func newStreamSum(save bool, sizeHint int) *streamSum {
	s := &streamSum{crc: crc32.New(crc32.MakeTable(crc32.Castagnoli)), save: save}
	if save {
		s.keep = make([]byte, 0, sizeHint)
	}
	return s
}

func (s *streamSum) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	s.crc.Write(p) // hash.Hash writes never fail
	if s.save {
		s.keep = append(s.keep, p...)
	}
	return len(p), nil
}

// sinkSeam decorates the results sink (core.BatchSink) from outside: it
// counts batches and samples always, and on traced iterations records a
// results.write_batch span around every call into *results.Writer.
type sinkSeam struct {
	inner            core.BatchSink
	tr               *tracer
	batches, samples uint64
}

func (s *sinkSeam) WriteBatch(batch, metric, unit string, atNS int64, samples []float64) error {
	s.batches++
	s.samples += uint64(len(samples))
	sp := s.tr.begin("results.write_batch")
	err := s.inner.WriteBatch(batch, metric, unit, atNS, samples)
	s.tr.end(sp)
	return err
}

// pairs enumerates a request's (path, metric) series.
type pair struct {
	path   core.PathID
	metric metrics.Metric
}

func pairsOf(paths []core.Path, mets []metrics.Metric) []pair {
	out := make([]pair, 0, len(paths)*len(mets))
	for _, p := range paths {
		for _, m := range mets {
			out = append(out, pair{p.ID, m})
		}
	}
	return out
}

// dbTotals folds one database into r: records, series, footprint, and the
// failed-measurement count. The store does not count failures, but its
// sketches see successful values only, so over the series the workload
// submitted the failures are Records minus the sketch counts. A database
// without sketches (an interior director's) passes no series.
func dbTotals(r *result, db *core.Database, series []pair) {
	fp := db.Footprint()
	r.samples += db.Records
	r.c["core.records"] += float64(db.Records)
	r.c["core.series"] += float64(fp.Series)
	r.c["core.footprint_bytes"] += float64(fp.RingBytes + fp.SketchBytes)
	if series == nil {
		return
	}
	ok := uint64(0)
	for _, s := range series {
		if sum, have := db.SketchSummary(s.path, s.metric); have {
			ok += sum.Count
		}
	}
	r.c["_core.failed_records"] += float64(db.Records - ok)
}

// netTotals folds one network's wire counters into r.
func netTotals(r *result, nw *netsim.Network) {
	for _, n := range nw.Nodes() {
		nc := n.Counters
		r.c["netsim.drops"] += float64(nc.NoRoute + nc.NoPort + nc.TTLExpired + nc.DownDrops)
		for _, ifc := range n.Ifaces() {
			ic := ifc.Counters
			r.c["netsim.frames"] += float64(ic.OutPkts)
			r.c["netsim.octets"] += float64(ic.OutOctets)
			r.c["netsim.drops"] += float64(ic.InDiscards + ic.OutDiscards + ic.InErrors + ic.OutErrors)
		}
	}
	for _, m := range nw.Media() {
		if seg, ok := m.(*netsim.SharedSegment); ok {
			r.c["netsim.deferrals"] += float64(seg.Stats().Deferrals)
		}
	}
}

// ages collects the age (now − TakenAt) of every answer a manager or
// reader acted on; its p95 is the paper's senescence.
type ages []float64

func (a *ages) add(now time.Duration, m core.Measurement) {
	*a = append(*a, float64(now-m.TakenAt)/float64(time.Millisecond))
}

// finishOutcome derives the virtual-time outcome metrics every sim workload
// reports from what collect gathered.
func finishOutcome(r *result, senescence ages, detect time.Duration, overheadBytes float64) {
	r.c["senescence_p95_ms"] = percentile(senescence, 0.95)
	r.c["detect_latency_ms"] = float64(detect) / float64(time.Millisecond)
	r.c["monitor_overhead_bps"] = overheadBytes * 8 / r.virtualS
	r.digest += fmt.Sprintf(" detect=%d reads=%d", detect, len(senescence))
}
