package main

import "encoding/json"

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
const runSeconds = 15

// Sources of a per-layer metric. All of them sit outside the program.
const (
	srcCounter = "c" // exact public counter, read after the untraced run
	srcSpan    = "s" // span recorded by a harness wrapper at a public seam, traced run
	srcProbe   = "p" // unit cost: the layer's public functions in a closed loop
	srcDerived = "d" // computed from the others (shares, ratios, runtime stats)
)

// metricDef is one row of the metric catalogue — the single place names,
// units, directions and bounds are written down. BENCHMARK.json is
// generated from it (-print-contract) and a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	src    string  // per-layer only
	// exact marks a value that is a count or a virtual time: it repeats
	// exactly for a seed, so -selfcheck and -compare demand equality.
	exact bool
	doc   string
	// moves is the interaction note: which end-to-end metric should move,
	// on which workload, when this one does.
	moves string
}

// endToEnd is what a user of the monitor would see, measured with tracing
// off, every one defined on all six workloads and never zero. All are host
// measurements: medians over the timed iterations of a run.
//
// wall_s is the one time metric. The issue's sim_s_per_s and samples_per_s
// are the same measurement under a fixed horizon and sample count, so they
// are reported per layer, not gated a second and third time. It carries
// 25 %, not the issue's 10 %: ten runs of one tree spread 2-6 % between their
// quartiles on a quiet host, but the 2-core box the benchmark was defined on
// is shared and also drifts as a whole (over one 16-minute -selfcheck every
// workload slowed by 5-10 % and the memory-bound db-ingest by 30 %; with a
// busy neighbour wan-federation-2shard, which needs both cores at once,
// spread 8-12 %), and a bound has to see through the drift between two sets
// of runs made minutes apart. The allocation metrics
// repeat to 0.04 %.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		doc: "topology build + agent deploy + Submit/Start/Place up to the first RunUntil; db: input generation + store creation. Milliseconds on the sim workloads, hence the widest bound."},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25,
		doc: "the timed run: RunUntil to the horizon + the final FlushResults; db: the op loop + flush"},
	{name: "allocs_per_sample", unit: "count", better: "lower", bound: 0.05,
		doc: "runtime.MemStats.Mallocs over the timed run / samples: the cost of one monitored sample, packet to database"},
	{name: "bytes_per_sample", unit: "B", better: "lower", bound: 0.05,
		doc: "runtime.MemStats.TotalAlloc over the timed run / samples"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15,
		doc: "VmHWM of the workload's process"},
}

const (
	onKernel = "wall_s down, sim_s_per_s up (at most sim.share_est) on hiperd-rtds-hifi and trap-storm-tree; flat on db-*"
	onShard  = "wall_s down, sim_s_per_s up on wan-federation-2shard; flat on every single-kernel workload; virtual outcomes identical"
	onNetsim = "wall_s down, allocs_per_sample down on hiperd-rtds-hifi and cots-fleet-poll; flat on trap-storm-tree and db-*"
	onCodec  = "wall_s down, bytes_per_sample down on cots-fleet-poll and wan-federation-2shard; flat on hiperd-rtds-hifi and trap-storm-tree"
	onWrite  = "wall_s down, samples_per_s up on db-ingest; flat on the sim workloads (store < 1 % of wall)"
	onRead   = "wall_s down on db-query-mix; db-ingest must not regress"
	onTraps  = "traps_per_s up on trap-storm-tree with detect_latency_ms and op_fail_frac unchanged there; other workloads flat"
	onPolicy = "senescence_p95_ms, detect_latency_ms and monitor_overhead_bps trade against each other (paper §4.3) on the sim workload changed; any move here is a behaviour change and must be claimed"
	onGC     = "sim.slice_ms_p99 down, peak_rss_mb down on hiperd-rtds-hifi (1 KB allocated per event)"
)

// perLayer is every single-layer metric, layer = module name. A metric a
// workload does not exercise reads 0 there; that includes the probes of a
// layer the workload did no work in.
var perLayer = []metricDef{
	// Outcomes of the monitored system. The issue lists them as end-to-end.
	// The two rates restate wall_s; the rest are virtual times or exact
	// counts, and the benchmark contract wants every end-to-end metric
	// non-zero on every workload and steady across seeds, which none of them
	// is, so they are kept here and gated exactly.
	{name: "sim_s_per_s", unit: "1/s", better: "higher", src: srcDerived, doc: "virtual seconds per host second (horizon / wall_s) on the four sim workloads: simulator speed that cannot move by changing how many events a run needs", moves: "restates wall_s (end-to-end) on the sim workloads"},
	{name: "samples_per_s", unit: "1/s", better: "higher", src: srcDerived, doc: "Σ Database.Records over every member database / wall_s", moves: "restates wall_s (end-to-end) on every workload"},
	{name: "traps_per_s", unit: "1/s", better: "higher", src: srcDerived, doc: "Σ leaf Stats.TrapsIn / wall_s (trap-storm-tree)", moves: onTraps},
	{name: "detect_latency_ms", unit: "ms", better: "lower", src: srcCounter, exact: true, doc: "virtual: fault -> manager Reconfig (hiperd); kill -> first reachability-0 sample (cots, wan); victim alarm raise -> root OnTrap (trap)", moves: onPolicy},
	{name: "senescence_p95_ms", unit: "ms", better: "lower", src: srcCounter, exact: true, doc: "virtual: p95 age (now - TakenAt) of every answer the manager / reader acted on", moves: onPolicy},
	{name: "monitor_overhead_bps", unit: "bit/s", better: "lower", src: srcCounter, exact: true, doc: "virtual: monitor-generated octets / horizon (hifi.TrafficBytes, snmp.Client BytesSent+BytesRecv): the paper's intrusiveness", moves: onPolicy},
	{name: "op_fail_frac", unit: "fraction", better: "lower", src: srcCounter, exact: true, doc: "failed / attempted: measurements recorded with Err / Records; trap-storm-tree: (TrapsDropped+TrapsLost) / TrapsIn; db reads answered wrongly count as failed", moves: onPolicy},

	{name: "sim.events", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "events the kernel(s) executed to the horizon", moves: onKernel},
	{name: "sim.events_per_s", unit: "1/s", better: "higher", src: srcDerived, doc: "sim.events / wall_s", moves: onKernel},
	{name: "sim.slice_ms_p50", unit: "ms", better: "lower", src: srcSpan, doc: "host ms per RunUntil slice (horizon/1200), median", moves: onKernel},
	{name: "sim.slice_ms_p99", unit: "ms", better: "lower", src: srcSpan, doc: "same, p99 (1200 slices: twelve beyond it)", moves: onGC},
	{name: "sim.schedule_ns", unit: "ns", better: "lower", src: srcProbe, doc: "schedule + fire one one-shot event, warm pool", moves: onKernel},
	{name: "sim.proc_switch_ns", unit: "ns", better: "lower", src: srcProbe, doc: "one Proc park/resume round trip at GOMAXPROCS=2", moves: onKernel},
	{name: "sim.proc_switch_ns_p1", unit: "ns", better: "lower", src: srcProbe, doc: "same at GOMAXPROCS=1", moves: onKernel},
	{name: "sim.queue_putget_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Queue.Put + consumer Get", moves: onKernel},
	{name: "sim.p1_wall_ratio", unit: "ratio", better: "lower", src: srcDerived, doc: "this workload's wall_s at GOMAXPROCS=1 / at 2: what cross-P goroutine hand-off costs", moves: onKernel},
	{name: "sim.shard_windows", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "ShardGroup.Windows", moves: onShard},
	{name: "sim.shard_xmsgs", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "ShardGroup.CrossShardMessages", moves: onShard},
	{name: "sim.shard_barrier_ns", unit: "ns", better: "lower", src: srcProbe, doc: "one 2-shard window with a trivial event per shard", moves: onShard},
	{name: "sim.shard_handoff_ns", unit: "ns", better: "lower", src: srcProbe, doc: "one cross-shard Send, staged, merged and delivered", moves: onShard},
	{name: "sim.shard_wall_ratio", unit: "ratio", better: "lower", src: srcDerived, doc: "wan-federation-2shard wall_s at 2 shards / same topology at 1 shard", moves: onShard},
	{name: "sim.share_est", unit: "fraction", better: "lower", src: srcDerived, doc: "sim.events x sim.schedule_ns / wall_s: a floor, since a Proc resume costs more than a timer", moves: onKernel},

	{name: "netsim.frames", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ iface OutPkts: every transmission on any medium", moves: onNetsim},
	{name: "netsim.octets", unit: "B", better: "lower", src: srcCounter, exact: true, doc: "Σ iface OutOctets", moves: onNetsim},
	{name: "netsim.drops", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ iface discards and errors + node NoRoute/NoPort/TTLExpired/DownDrops", moves: onNetsim},
	{name: "netsim.deferrals", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ SegmentStats.Deferrals", moves: onNetsim},
	{name: "netsim.segment_delivery_ns", unit: "ns", better: "lower", src: srcProbe, doc: "one 100 B datagram across one shared segment into a sink", moves: onNetsim},
	{name: "netsim.routed_delivery_ns", unit: "ns", better: "lower", src: srcProbe, doc: "same across segment - router - segment", moves: onNetsim},
	{name: "netsim.allocs_per_frame", unit: "count", better: "lower", src: srcProbe, doc: "allocations per datagram in the segment probe", moves: onNetsim},
	{name: "netsim.share_est", unit: "fraction", better: "lower", src: srcDerived, doc: "netsim.frames x (segment_delivery_ns - its kernel events x sim.schedule_ns) / wall_s", moves: onNetsim},
	{name: "topo.build_s", unit: "s", better: "lower", src: srcSpan, doc: "topo.Build* (db: input generation)", moves: "setup_s down on the sim workloads"},

	{name: "asn1ber.encode_ns", unit: "ns", better: "lower", src: srcProbe, doc: "re-emit one captured SNMP message's TLV tree with the Append* calls", moves: onCodec},
	{name: "asn1ber.decode_ns", unit: "ns", better: "lower", src: srcProbe, doc: "walk one captured message's TLV tree with Reader, parsing ints and OIDs", moves: onCodec},
	{name: "asn1ber.allocs_per_msg", unit: "count", better: "lower", src: srcProbe, doc: "allocations per message, encode + decode", moves: onCodec},
	{name: "asn1ber.share_est", unit: "fraction", better: "lower", src: srcDerived, doc: "SNMP messages on the wire x (encode_ns + decode_ns) / wall_s", moves: onCodec},
	{name: "mib.get_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Tree.Get of the poll's two OIDs on a NodeView, per OID", moves: onCodec},
	{name: "mib.next_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Tree.Next from the same OIDs, per OID", moves: onCodec},

	{name: "snmp.requests", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ Client.Stats.Requests (every attempt)", moves: onCodec},
	{name: "snmp.retries", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ Client.Stats.Retries", moves: onPolicy},
	{name: "snmp.timeouts", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ Client.Stats.Timeouts", moves: onPolicy},
	{name: "snmp.wire_bytes", unit: "B", better: "lower", src: srcCounter, exact: true, doc: "Σ BytesSent + BytesRecv", moves: onPolicy},
	{name: "snmp.trapsink_dropped", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ TrapSink.Stats.Dropped", moves: onPolicy},
	{name: "snmp.msg_encode_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Message.Encode over the captured message mix", moves: onCodec},
	{name: "snmp.msg_decode_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Decode over the captured message mix", moves: onCodec},
	{name: "snmp.agent_handle_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Agent.Handle on the poll's Get PDU against a NodeView", moves: onCodec},
	{name: "snmp.share_est", unit: "fraction", better: "lower", src: srcDerived, doc: "(requests encoded + responses x (agent_handle_ns + msg_decode_ns)) / wall_s, less asn1ber.share_est", moves: onCodec},

	{name: "hifi.sweeps", unit: "count", better: "higher", src: srcCounter, exact: true, doc: "hifi.Monitor.Sweeps", moves: onPolicy},
	{name: "hifi.sweep_virtual_s", unit: "s", better: "lower", src: srcCounter, exact: true, doc: "hifi.Monitor.SweepTime: the sequencer's C x S x T", moves: onPolicy},
	{name: "hifi.skipped_paths", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "hifi.Monitor.SkippedPaths", moves: onPolicy},
	{name: "cots.sweeps", unit: "count", better: "higher", src: srcCounter, exact: true, doc: "Σ cots.Monitor.Sweeps", moves: onPolicy},
	{name: "cots.fast_failed_polls", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ RStats.FastFailedPolls", moves: onPolicy},
	{name: "cots.shed_sweeps", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ RStats.ShedSweeps", moves: onPolicy},

	{name: "core.records", unit: "count", better: "higher", src: srcCounter, exact: true, doc: "Σ Database.Records", moves: onWrite},
	{name: "core.series", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ Database.Series", moves: onWrite},
	{name: "core.footprint_bytes", unit: "B", better: "lower", src: srcCounter, exact: true, doc: "Σ Footprint ring + sketch bytes", moves: "peak_rss_mb down on db-*"},
	{name: "core.record_ns_hot", unit: "ns", better: "lower", src: srcProbe, doc: "Record on one series, sketches on", moves: onWrite},
	{name: "core.record_ns_1024", unit: "ns", better: "lower", src: srcProbe, doc: "Record over the 1024-series skewed working set, sketches on", moves: onWrite},
	{name: "core.fresh_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Fresh on the filled 1024-series store", moves: onRead},
	{name: "core.quantile_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Quantile(0.95) on the filled 1024-series store", moves: onRead},
	{name: "core.mark_stale_ns", unit: "ns", better: "lower", src: srcProbe, doc: "one MarkStale sweep over 1024 series", moves: onRead},
	{name: "core.flush_results_s", unit: "s", better: "lower", src: srcSpan, doc: "the final FlushResults", moves: onWrite},
	{name: "core.share_est", unit: "fraction", better: "lower", src: srcDerived, doc: "(records x record_ns + fresh reads x fresh_ns + quantile reads x quantile_ns + sweeps x mark_stale_ns) / wall_s; record_ns_1024 from 512 series up, else record_ns_hot", moves: onWrite},
	{name: "sketch.update_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Update on a warm sketch", moves: onWrite},
	{name: "sketch.quantile_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Quantile(0.95) on a warm sketch with a part-filled buffer", moves: onRead},
	{name: "sketch.merge_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Merge of two warm sketches", moves: onTraps},
	{name: "sketch.bytes_per_series", unit: "B", better: "lower", src: srcProbe, exact: true, doc: "Sketch.Bytes", moves: "peak_rss_mb down on db-*"},

	{name: "director.traps_in", unit: "count", better: "higher", src: srcCounter, exact: true, doc: "Σ leaf Stats.TrapsIn", moves: onTraps},
	{name: "director.traps_dropped", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ Stats.TrapsDropped, whole tree", moves: onTraps},
	{name: "director.traps_processed", unit: "count", better: "higher", src: srcCounter, exact: true, doc: "Σ Stats.TrapsProcessed, whole tree", moves: onTraps},
	{name: "director.traps_forwarded", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ Stats.TrapsForwarded, whole tree", moves: onTraps},
	{name: "director.traps_delivered", unit: "count", better: "higher", src: srcCounter, exact: true, doc: "root Stats.TrapsDelivered", moves: onTraps},
	{name: "director.coalesced", unit: "count", better: "higher", src: srcCounter, exact: true, doc: "root CoalescedTotal", moves: onTraps},
	{name: "director.reexports", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ Stats.Reexports", moves: onTraps},
	{name: "director.records_in", unit: "count", better: "higher", src: srcCounter, exact: true, doc: "root Stats.RecordsIn", moves: onTraps},
	{name: "director.batches_dropped", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Σ Stats.BatchesDropped", moves: onTraps},
	{name: "director.adoptions", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "root Stats.Adoptions", moves: onPolicy},
	{name: "director.reclaims", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "root Stats.Reclaims", moves: onPolicy},
	{name: "director.offer_trap_ns", unit: "ns", better: "lower", src: srcProbe, doc: "one trap through a flat director: OfferTrap, drain, coalesce, on the E16 trap keys", moves: onTraps},
	{name: "director.coalesce_offer_ns", unit: "ns", better: "lower", src: srcProbe, doc: "Coalescer.Offer + Take on the E16 trap keys", moves: onTraps},
	{name: "director.reexport_ns", unit: "ns", better: "lower", src: srcProbe, doc: "one leaf re-export cycle (1 path x 2 metrics + region sketches) including the root's ingest", moves: onTraps},
	{name: "director.query_fresh_ns", unit: "ns", better: "lower", src: srcSpan, doc: "root QueryFresh as the reader calls it, median", moves: onTraps},
	{name: "director.share_est", unit: "fraction", better: "lower", src: srcDerived, doc: "(traps_in x offer_trap_ns net of kernel events + reexports x reexport_ns + fresh reads x query_fresh_ns) / wall_s", moves: onTraps},

	{name: "manager.queries", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "calls the manager (db-query-mix: the op loop) made into the monitor", moves: onRead},
	{name: "manager.query_ns_p50", unit: "ns", better: "lower", src: srcSpan, doc: "one such call, median (db-query-mix: a Fresh + Quantile pair)", moves: onRead},
	{name: "manager.query_ns_p99", unit: "ns", better: "lower", src: srcSpan, doc: "same, p99", moves: onRead},
	{name: "manager.query_wait_s", unit: "s", better: "lower", src: srcSpan, doc: "total host time inside those calls", moves: onRead},
	{name: "manager.reconfigs", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "len(Manager.Reconfigs)", moves: onPolicy},
	{name: "manager.stale_reads", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "Manager.StaleReads", moves: onPolicy},

	{name: "results.batches", unit: "count", better: "lower", src: srcCounter, exact: true, doc: "batches through the BatchSink seam", moves: onWrite},
	{name: "results.samples", unit: "count", better: "higher", src: srcCounter, exact: true, doc: "samples in those batches", moves: onWrite},
	{name: "results.bytes", unit: "B", better: "lower", src: srcCounter, exact: true, doc: "JSONL bytes the writer produced", moves: onWrite},
	{name: "results.write_batch_ns", unit: "ns", better: "lower", src: srcSpan, doc: "one WriteBatch into *results.Writer, median", moves: onWrite},
	{name: "results.read_summary_s", unit: "s", better: "lower", src: srcSpan, doc: "results.Read + Summarize over the archive just written", moves: "none: offline path"},
	{name: "results.share_est", unit: "fraction", better: "lower", src: srcDerived, doc: "total results.write_batch span time per iteration / wall_s", moves: onWrite},
	{name: "rtds.recovery_virtual_s", unit: "s", better: "lower", src: srcCounter, exact: true, doc: "fault -> all nine clients fresh again", moves: onPolicy},
	{name: "rtds.engagements", unit: "count", better: "higher", src: srcCounter, exact: true, doc: "Σ client Engagements", moves: onPolicy},

	{name: "telemetry.wall_ratio", unit: "ratio", better: "lower", src: srcDerived, doc: "cots-fleet-poll wall_s with EnableTelemetry on / off", moves: "wall_s on cots-fleet-poll when telemetry is on; the benchmark runs it off"},
	{name: "experiments.quick_suite_s", unit: "s", better: "lower", src: srcDerived, doc: "experiments.RunAll(All(), quick, 1), run by hiperd-rtds-hifi only", moves: onKernel},
	{name: "experiments.tables_digest_ok", unit: "bool", better: "higher", src: srcDerived, exact: true, doc: "1 on hiperd-rtds-hifi, whose traced run checks the SHA-256 of every E1-E16/A1-A3 quick table against bench/tables.sha256 and fails on a mismatch; 0 elsewhere: not checked there", moves: "a speed-up that moves a table cell fails the run"},
	{name: "go.gc_cycles", unit: "count", better: "lower", src: srcDerived, doc: "GC cycles during the timed run", moves: onGC},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower", src: srcDerived, doc: "total stop-the-world pause during the timed run", moves: onGC},
	{name: "go.heap_inuse_peak_mb", unit: "MiB", better: "lower", src: srcDerived, doc: "HeapInuse at the end of the timed run", moves: onGC},
	{name: "go.goroutines_peak", unit: "count", better: "lower", src: srcDerived, exact: true, doc: "goroutines alive at the end of the timed run (one per Proc)", moves: onKernel},
	{name: "trace.wall_ratio", unit: "ratio", better: "lower", src: srcDerived, doc: "traced wall_s / untraced wall_s: what tracing costs", moves: "none: the end-to-end numbers come from untraced runs"},
	{name: "trace.unattributed_share", unit: "fraction", better: "lower", src: srcDerived, doc: "1 - Σ share_est: host time no probe x count accounts for", moves: "falls as seams are added"},
}

// workloads are the six named workloads; later issues cite the names.
var workloads = []workload{
	{name: "hiperd-rtds-hifi", setup: hiperdRTDSHifi, checksTables: true,
		why: "paper 5.1: rtds + hifi sequencer + manager failover; sim proc switching, netsim and the app do the work, codec and store idle"},
	{name: "cots-fleet-poll", setup: cotsFleetPoll,
		why:      "paper 5.2: 96-agent SNMP poll; the only workload where BER, SNMP and MIB work dominates, with timeouts, retries and the results seam",
		variants: []variant{{metric: "telemetry.wall_ratio", apply: func(c *ctx) { c.telemetry = true }, same: sameDigest}}},
	{name: "trap-storm-tree", setup: trapStormTree,
		why: "E16 scaled: director trap loop, coalescer, queues and the event heap; trap writes, re-export and fresh-gated reads at once, no BER"},
	{name: "wan-federation-2shard", setup: wanFederation2Shard,
		why: "only workload on sim.ShardGroup: barrier, staging and cross-shard hand-off; the single-kernel workloads bypass it",
		// Windows and event interleaving differ by shard count; sharding is
		// transparent when the samples and the detection are the same.
		variants: []variant{{metric: "sim.shard_wall_ratio", apply: func(c *ctx) { c.shards = 1 }, inverse: true,
			same: func(ref, v *result) bool {
				return ref.samples == v.samples && ref.c["detect_latency_ms"] == v.c["detect_latency_ms"]
			}}}},
	{name: "db-ingest", setup: dbIngest,
		why: "store write path alone (Record + sketch + results), 1024 skewed series beyond L2; the store is under 1 % of the sim workloads"},
	{name: "db-query-mix", setup: dbQueryMix,
		why: "Fresh + Quantile reads beside Record on the same store; a read cache that slows Record wins here and loses on db-ingest"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// contractJSON renders BENCHMARK.json from the catalogue.
func contractJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
