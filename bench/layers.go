package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/results"
)

// tablesGolden is the SHA-256 over every quick-mode experiment table at
// the commit that defined the benchmark. A simulator speed-up that moves
// any E1-E16/A1-A3 cell changes the digest.
//
//go:embed tables.sha256
var tablesGolden string

// tablesDigest regenerates the whole quick suite serially and hashes the
// rendered tables.
func tablesDigest() (digest string, elapsed time.Duration) {
	t0 := time.Now()
	h := sha256.New()
	for _, r := range experiments.RunAll(experiments.All(), true, 1) {
		h.Write([]byte(r.Table.String()))
	}
	return hex.EncodeToString(h.Sum(nil)), time.Since(t0)
}

// tracedRun produces every per-layer metric for one workload: exact
// counters from an untraced iteration, spans from traced iterations (as
// many as fit in o.seconds after the fixed steps), unit costs from the
// probes, and the share estimates that combine them.
func tracedRun(w *workload, o options) (*report, error) {
	start := time.Now()
	base := ctx{seed: o.seed, smoke: o.smoke}

	// Untraced reference iteration (after a warm-up): counters and the
	// wall time the ratios are taken against.
	if _, err := w.iterate(&base); err != nil {
		return nil, err
	}
	ref, err := w.iterate(&base)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	for k, v := range ref.c {
		m[k] = v
	}

	// Variant iterations for the ratios.
	runtime.GOMAXPROCS(1)
	p1, err := w.iterate(&base)
	runtime.GOMAXPROCS(pinnedProcs)
	if err != nil {
		return nil, err
	}
	if p1.digest != ref.digest {
		return nil, fmt.Errorf("%s: outcome at GOMAXPROCS=1 differs:\n  at 2 %s\n  at 1 %s", w.name, ref.digest, p1.digest)
	}
	m["sim.p1_wall_ratio"] = p1.wallS / ref.wallS
	for _, v := range w.variants {
		alt := base
		v.apply(&alt)
		r, err := w.iterate(&alt)
		if err != nil {
			return nil, err
		}
		if !v.same(ref, r) {
			return nil, fmt.Errorf("%s: the %s variant changed the outcome:\n  as named %s\n  variant  %s", w.name, v.metric, ref.digest, r.digest)
		}
		m[v.metric] = r.wallS / ref.wallS
		if v.inverse {
			m[v.metric] = ref.wallS / r.wallS
		}
	}

	pb := prober{seed: o.seed, div: 1}
	if o.smoke {
		pb.div = 20
	}
	pr, err := pb.run(ref.c)
	if err != nil {
		return nil, err
	}
	for k, v := range pr {
		m[k] = v
	}

	// One workload regenerates the experiment tables, so a driver's run of
	// all six checks them once; a table that moved fails that run.
	if w.checksTables && !o.smoke {
		digest, suite := tablesDigest()
		if want := strings.TrimSpace(tablesGolden); digest != want {
			return nil, fmt.Errorf("experiment tables digest %s differs from bench/tables.sha256 (%s): a table cell changed", digest, want)
		}
		m["experiments.quick_suite_s"] = suite.Seconds()
		m["experiments.tables_digest_ok"] = 1
	}

	// Traced iterations: at least one, more while the run's time lasts.
	tr := newTracer()
	traced := base
	traced.tr = tr
	traced.archiveBytes = int(ref.c["results.bytes"])
	var last *result
	var tracedWall []float64
	for i := 0; i == 0 || (o.iterations == 0 && time.Since(start) < time.Duration(o.seconds)*time.Second); i++ {
		tr.iteration = i
		if last, err = w.iterate(&traced); err != nil {
			return nil, err
		}
		if last.digest != ref.digest {
			return nil, fmt.Errorf("%s: traced outcome differs:\n  untraced %s\n  traced   %s", w.name, ref.digest, last.digest)
		}
		tracedWall = append(tracedWall, last.wallS)
	}
	if len(last.archive) > 0 {
		sp := tr.begin("results.read_summary")
		set, err := results.Read(bytes.NewReader(last.archive))
		if err != nil {
			return nil, fmt.Errorf("%s: read results archive: %w", w.name, err)
		}
		sum := results.Summarize(set)
		tr.end(sp)
		if got := float64(len(set.Records)); got != m["results.batches"] {
			return nil, fmt.Errorf("%s: archive holds %v records, the sink saw %v batches", w.name, got, m["results.batches"])
		}
		fmt.Printf("# results archive: %d records, %d series, record digest %s\n",
			len(set.Records), len(sum.Batches), set.RecordDigest())
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(o.out, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}

	spanMetrics(m, tr, len(tracedWall))
	m["trace.wall_ratio"] = median(tracedWall) / ref.wallS
	derive(m, ref)

	rep := &report{Correct: true, Attempted: ref.attempts, Metrics: make(map[string]value)}
	for _, d := range perLayer {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	return rep, nil
}

// spanMetrics reads the (s) metrics off the trace. iters is how many traced
// iterations the spans cover; per-iteration totals are averaged over it.
func spanMetrics(m map[string]float64, tr *tracer, iters int) {
	total := func(name string) float64 { // seconds, all traced iterations
		sum := 0.0
		for _, d := range durations(tr.spans, name) {
			sum += d
		}
		return sum / 1e9
	}
	perIter := func(name string) float64 { return total(name) / float64(iters) }
	slices := durations(tr.spans, "sim.slice")
	m["sim.slice_ms_p50"] = median(slices) / 1e6
	m["sim.slice_ms_p99"] = tail99(slices) / 1e6
	m["topo.build_s"] = perIter("topo.build")
	m["core.flush_results_s"] = perIter("core.flush_results")
	q := durations(tr.spans, "manager.query")
	m["manager.query_ns_p50"] = median(q)
	m["manager.query_ns_p99"] = tail99(q)
	m["manager.query_wait_s"] = perIter("manager.query")
	m["director.query_fresh_ns"] = median(durations(tr.spans, "director.query_fresh"))
	m["results.write_batch_ns"] = median(durations(tr.spans, "results.write_batch"))
	m["results.read_summary_s"] = total("results.read_summary") // read once, after the last iteration
	m["_results.write_s"] = perIter("results.write_batch")
	m["_director.query_fresh_s"] = perIter("director.query_fresh")
}

// tail99 reports a timing's p99 under the percentile rule: at the highest
// percentile that still has ten samples beyond it. Full-size
// runs always have the samples for p99 (traceSlices is chosen so); a
// smoke-size run reports a lower percentile under the same name, and the
// median when even p90 is unsupported.
func tail99(xs []float64) float64 {
	return percentile(xs, math.Max(0.5, tailPercentile(len(xs))))
}

// derive computes the (d) metrics: rates, runtime figures, and the share
// estimates — probe unit cost x this workload's exact op count / wall —
// that make up the per-layer cost budget, with the honest residue.
func derive(m map[string]float64, ref *result) {
	wallNS := ref.wallS * 1e9
	m["sim.events_per_s"] = m["sim.events"] / ref.wallS
	m["traps_per_s"] = m["director.traps_in"] / ref.wallS
	m["samples_per_s"] = m["core.records"] / ref.wallS
	if m["sim.events"] > 0 {
		m["sim_s_per_s"] = ref.virtualS / ref.wallS
	}
	if traps := m["director.traps_in"]; traps > 0 {
		m["op_fail_frac"] = float64(ref.faulted()) / traps
	} else {
		m["op_fail_frac"] = float64(ref.faulted()) / m["core.records"]
	}
	m["go.gc_cycles"] = float64(ref.gcCycles)
	m["go.gc_pause_ms"] = ref.gcPauseMS
	m["go.heap_inuse_peak_mb"] = ref.heapInuseMB
	m["go.goroutines_peak"] = float64(ref.goroutines)

	sched := m["sim.schedule_ns"]
	net := func(raw, events float64) float64 { return math.Max(0, raw-events*sched) }
	share := map[string]float64{}
	share["sim"] = m["sim.events"] * sched / wallNS
	share["netsim"] = m["netsim.frames"] * net(m["netsim.segment_delivery_ns"], m["_netsim.segment_events"]) / wallNS

	// Every message on the wire is BER-encoded once and decoded once; the
	// SNMP figures (Encode, Decode, Agent.Handle) contain that work, so it
	// is taken out of the snmp share.
	msgs := m["snmp.requests"] + m["_snmp.responses"]
	share["asn1ber"] = msgs * (m["asn1ber.encode_ns"] + m["asn1ber.decode_ns"]) / wallNS
	snmpAll := ((m["snmp.requests"]-m["snmp.retries"])*m["snmp.msg_encode_ns"] +
		m["_snmp.responses"]*(m["snmp.agent_handle_ns"]+m["snmp.msg_decode_ns"])) / wallNS
	share["snmp"] = math.Max(0, snmpAll-share["asn1ber"])

	rec := m["core.record_ns_hot"]
	if m["core.series"] >= 512 {
		rec = m["core.record_ns_1024"]
	}
	share["core"] = (m["core.records"]*rec + m["_core.fresh_reads"]*m["core.fresh_ns"] +
		m["_core.quantile_reads"]*m["core.quantile_ns"] + m["_core.mark_stale_calls"]*m["core.mark_stale_ns"]) / wallNS

	share["director"] = (m["director.traps_in"]*net(m["director.offer_trap_ns"], m["_director.offer_trap_events"])+
		m["director.reexports"]*m["director.reexport_ns"])/wallNS + m["_director.query_fresh_s"]/ref.wallS
	// A span's duration is the wrapped call's own time, so span totals are
	// set against the untraced wall, not the traced one.
	share["results"] = m["_results.write_s"] / ref.wallS

	rest := 1.0
	for layer, s := range share {
		m[layer+".share_est"] = s
		rest -= s
	}
	m["trace.unattributed_share"] = rest
}
