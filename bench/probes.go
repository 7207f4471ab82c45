package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/asn1ber"
	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/director"
	"repro/internal/metrics"
	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/snmp"
	"repro/internal/topo"
)

// cost is one probe's unit cost.
type cost struct {
	ns     float64 // host nanoseconds per op
	allocs float64 // allocations per op
	events float64 // kernel events per op, for probes that run a kernel
}

// probeReps is how often each probe repeats its closed loop; the median
// repetition is reported.
const probeReps = 3

// prober runs the unit-cost probes. div divides every probe's op count: 1,
// except on smoke-size runs.
type prober struct {
	seed int64
	div  int
}

func (pb prober) n(ops int) int { return ops/pb.div + 1 }

// measure times fn, which performs ops operations and returns how many
// kernel events that took, probeReps times after one warm-up call.
func measure(ops int, fn func() int) cost {
	fn()
	var ns, allocs []float64
	events := 0
	for i := 0; i < probeReps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		events = fn()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return cost{ns: median(ns), allocs: median(allocs), events: float64(events) / float64(ops)}
}

// run runs the unit-cost probes of every layer the workload exercised —
// used holds its exact counters — and returns the (p) metrics plus the costs
// the share estimates need; a layer that did no work there is not probed and
// its metrics read 0. The probes call the layers' public functions only, on
// inputs shaped like the workloads: the SNMP message mix is captured off a
// polled segment with a Tap, the store holds the db workloads' 1024 skewed
// series, the trap keys are E16's.
func (pb prober) run(used map[string]float64) (map[string]float64, error) {
	out := make(map[string]float64)
	put := func(name string, c cost) cost {
		out[name] = c.ns
		return c
	}

	if used["sim.events"] > 0 {
		put("sim.schedule_ns", pb.probeSchedule())
		put("sim.proc_switch_ns", pb.probeProcSwitch())
		prev := runtime.GOMAXPROCS(1)
		put("sim.proc_switch_ns_p1", pb.probeProcSwitch())
		runtime.GOMAXPROCS(prev)
		put("sim.queue_putget_ns", pb.probeQueue())
	}
	if used["sim.shard_windows"] > 0 {
		put("sim.shard_barrier_ns", pb.probeShardBarrier())
		put("sim.shard_handoff_ns", pb.probeShardHandoff())
	}

	if used["netsim.frames"] > 0 {
		seg := put("netsim.segment_delivery_ns", pb.probeDelivery(false))
		out["netsim.allocs_per_frame"] = seg.allocs
		out["_netsim.segment_events"] = seg.events
		put("netsim.routed_delivery_ns", pb.probeDelivery(true))
	}

	// asn1ber / snmp / mib on the captured poll traffic
	if used["snmp.requests"] > 0 {
		mix, view, err := captureSNMPMix(pb.seed)
		if err != nil {
			return nil, err
		}
		enc, dec, err := pb.probeBER(mix)
		if err != nil {
			return nil, err
		}
		put("asn1ber.encode_ns", enc)
		put("asn1ber.decode_ns", dec)
		out["asn1ber.allocs_per_msg"] = enc.allocs + dec.allocs
		menc, mdec, err := pb.probeSNMPCodec(mix)
		if err != nil {
			return nil, err
		}
		put("snmp.msg_encode_ns", menc)
		put("snmp.msg_decode_ns", mdec)
		handle, err := pb.probeAgentHandle(view)
		if err != nil {
			return nil, err
		}
		put("snmp.agent_handle_ns", handle)
		get, next, err := pb.probeMIB(view)
		if err != nil {
			return nil, err
		}
		put("mib.get_ns", get)
		put("mib.next_ns", next)
	}

	// core / sketch: every workload records
	put("core.record_ns_hot", pb.probeRecord(true))
	put("core.record_ns_1024", pb.probeRecord(false))
	fresh, quant, mark := pb.probeReads()
	put("core.fresh_ns", fresh)
	put("core.quantile_ns", quant)
	put("core.mark_stale_ns", mark)
	upd, qnt, mrg := pb.probeSketch()
	put("sketch.update_ns", upd)
	put("sketch.quantile_ns", qnt)
	put("sketch.merge_ns", mrg)
	var sk sketch.Sketch
	out["sketch.bytes_per_series"] = float64(sk.Bytes())

	if used["director.traps_in"] > 0 {
		offer, err := pb.probeOfferTrap()
		if err != nil {
			return nil, err
		}
		put("director.offer_trap_ns", offer)
		out["_director.offer_trap_events"] = offer.events
		put("director.coalesce_offer_ns", pb.probeCoalesce())
		rex, err := pb.probeReexport()
		if err != nil {
			return nil, err
		}
		put("director.reexport_ns", rex)
	}
	return out, nil
}

func (pb prober) probeSchedule() cost {
	k := sim.NewKernel()
	defer k.Close()
	ops := pb.n(100_000)
	return measure(ops, func() int {
		n := 0
		for i := 0; i < ops; i++ {
			k.After(time.Microsecond, func() {})
			if i%1024 == 1023 {
				n += k.Run()
			}
		}
		return n + k.Run()
	})
}

func (pb prober) probeProcSwitch() cost {
	k := sim.NewKernel()
	defer k.Close()
	k.Spawn("spinner", func(p *sim.Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	ops := pb.n(20_000)
	return measure(ops, func() int {
		// Each microsecond of virtual time is one park/resume round trip.
		return k.RunUntil(k.Now() + time.Duration(ops)*time.Microsecond)
	})
}

func (pb prober) probeQueue() cost {
	k := sim.NewKernel()
	defer k.Close()
	q := sim.NewQueue[int](k, 0)
	k.Spawn("consumer", func(p *sim.Proc) {
		for {
			if _, ok := q.Get(p, -1); !ok {
				return
			}
		}
	})
	ops := pb.n(50_000)
	return measure(ops, func() int {
		n := 0
		for i := 0; i < ops; i++ {
			q.Put(i)
			if i%1024 == 1023 {
				n += k.Run()
			}
		}
		return n + k.Run()
	})
}

func (pb prober) probeShardBarrier() cost {
	const lookahead = time.Microsecond
	g := sim.NewShardGroup(2, lookahead)
	defer g.Close()
	sink := make([]int, 2)
	var ticks []sim.Timer
	for s := 0; s < 2; s++ {
		s := s
		ticks = append(ticks, g.Shard(s).Every(lookahead, func() { sink[s]++ }))
	}
	defer func() {
		for _, t := range ticks {
			t.Stop()
		}
	}()
	ops := pb.n(10_000)
	return measure(ops, func() int {
		// One window per microsecond, both shards active in each.
		return g.RunUntil(g.Shard(0).Now() + time.Duration(ops)*lookahead)
	})
}

func (pb prober) probeShardHandoff() cost {
	const lookahead = time.Microsecond
	g := sim.NewShardGroup(2, lookahead)
	defer g.Close()
	ops := pb.n(10_000)
	return measure(ops, func() int {
		remaining := ops
		var bounce func(from int)
		bounce = func(from int) {
			remaining--
			if remaining <= 0 {
				return
			}
			to := 1 - from
			g.Send(from, to, g.Shard(from).Now()+lookahead, func() { bounce(to) })
		}
		g.Shard(0).After(0, func() { bounce(0) })
		return g.Run()
	})
}

func (pb prober) probeDelivery(routed bool) cost {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	a := nw.NewHost("a")
	c := nw.NewHost("c")
	lan1 := nw.NewSegment("lan1", netsim.Ethernet100())
	lan1.Attach(a)
	if routed {
		r := nw.NewRouter("r", 10*time.Microsecond)
		lan2 := nw.NewSegment("lan2", netsim.Ethernet100())
		lan1.Attach(r)
		lan2.Attach(r)
		lan2.Attach(c)
		a.SetDefaultRoute("r")
		c.SetDefaultRoute("r")
	} else {
		lan1.Attach(c)
	}
	netsim.NewSink(c, 9)
	sock := a.OpenUDP(0)
	ops := pb.n(20_000)
	return measure(ops, func() int {
		n := 0
		for i := 0; i < ops; i++ {
			sock.SendSize("c", 9, 100)
			if i%64 == 63 {
				n += k.Run() // drain so queues never cap
			}
		}
		return n + k.Run()
	})
}

// captureSNMPMix runs a small cots poll (two LANs, a routed backbone) for a
// few virtual seconds with a Tap on the backbone, and returns every SNMP
// message that crossed it — the workload's own request/response mix — and
// the MIB view of one polled host.
func captureSNMPMix(seed int64) ([][]byte, *mib.NodeView, error) {
	k := sim.NewKernel()
	defer k.Close()
	s := topo.BuildScaled(k, seed, 2, 4)
	var mix [][]byte
	s.Backbone.Tap(func(f netsim.Frame) {
		if f.Err || len(f.Pkt.Payload) == 0 {
			return
		}
		if _, err := snmp.Decode(f.Pkt.Payload); err == nil {
			mix = append(mix, append([]byte(nil), f.Pkt.Payload...))
		}
	})
	mon := cots.New(s.Mgmt, "public", time.Second)
	var paths []core.Path
	for i := 0; i < 4; i++ {
		paths = append(paths, core.NewPath(
			core.ProcessRef{Host: s.Hosts[i].Name}, core.ProcessRef{Host: s.Hosts[4+i].Name}))
	}
	mon.Submit(core.Request{Paths: paths,
		Metrics: []metrics.Metric{metrics.Throughput, metrics.Reachability, metrics.OneWayLatency}})
	mon.Start()
	k.RunUntil(5 * time.Second)
	mon.Stop()
	if len(mix) < 16 {
		return nil, nil, fmt.Errorf("snmp capture: only %d messages crossed the tap", len(mix))
	}
	return mix, mon.Agents[s.Hosts[0].Name].View, nil
}

// tlv is one node of a BER message parsed down to primitives, so that the
// encode probe can re-emit it through asn1ber's Append* calls alone.
type tlv struct {
	tag      byte
	children []tlv    // constructed: SEQUENCE and the context PDU tags
	ival     int64    // INTEGER
	uval     uint64   // Counter32, Gauge32, TimeTicks, Counter64
	oid      []uint32 // OBJECT IDENTIFIER
	raw      []byte   // everything else
}

func constructed(tag byte) bool { return tag&0x20 != 0 }

// parseTLVs parses a message into the tree the encode probe re-emits.
func parseTLVs(b []byte) ([]tlv, error) {
	var out []tlv
	r := asn1ber.NewReader(b)
	for !r.Empty() {
		tag, content, err := r.ReadTLV()
		if err != nil {
			return nil, err
		}
		n := tlv{tag: tag}
		switch {
		case constructed(tag):
			n.children, err = parseTLVs(content)
		case tag == asn1ber.TagInteger:
			n.ival, err = asn1ber.ParseInt(content)
		case unsignedTag(tag):
			n.uval, err = asn1ber.ParseUint(content)
		case tag == asn1ber.TagOID:
			n.oid, err = asn1ber.ParseOID(content)
		default:
			n.raw = content
		}
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func unsignedTag(tag byte) bool {
	return tag == asn1ber.TagCounter32 || tag == asn1ber.TagGauge32 ||
		tag == asn1ber.TagTimeTicks || tag == asn1ber.TagCounter64
}

// walkTLVs is the decode probe's unit of work: every TLV read and every
// integer and OID parsed, nothing kept — asn1ber's own cost, without a
// tree's.
func walkTLVs(b []byte) error {
	r := asn1ber.NewReader(b)
	for !r.Empty() {
		tag, content, err := r.ReadTLV()
		switch {
		case err != nil:
		case constructed(tag):
			err = walkTLVs(content)
		case tag == asn1ber.TagInteger:
			_, err = asn1ber.ParseInt(content)
		case unsignedTag(tag):
			_, err = asn1ber.ParseUint(content)
		case tag == asn1ber.TagOID:
			_, err = asn1ber.ParseOID(content)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func appendTLVs(dst []byte, nodes []tlv) []byte {
	for _, n := range nodes {
		switch {
		case constructed(n.tag):
			dst = asn1ber.AppendTLV(dst, n.tag, appendTLVs(nil, n.children))
		case n.tag == asn1ber.TagInteger:
			dst = asn1ber.AppendInt(dst, n.tag, n.ival)
		case unsignedTag(n.tag):
			dst = asn1ber.AppendUint(dst, n.tag, n.uval)
		case n.tag == asn1ber.TagOID:
			dst = asn1ber.AppendOID(dst, n.oid)
		case n.tag == asn1ber.TagNull:
			dst = asn1ber.AppendNull(dst)
		default:
			dst = asn1ber.AppendString(dst, n.tag, n.raw)
		}
	}
	return dst
}

func (pb prober) probeBER(mix [][]byte) (enc, dec cost, err error) {
	trees := make([][]tlv, len(mix))
	for i, b := range mix {
		if trees[i], err = parseTLVs(b); err != nil {
			return enc, dec, fmt.Errorf("ber probe: %w", err)
		}
		if got := appendTLVs(nil, trees[i]); string(got) != string(b) {
			return enc, dec, fmt.Errorf("ber probe: message %d does not round-trip", i)
		}
	}
	rounds := pb.n(50)
	ops := rounds * len(mix)
	enc = measure(ops, func() int {
		for r := 0; r < rounds; r++ {
			for _, t := range trees {
				appendTLVs(nil, t)
			}
		}
		return 0
	})
	dec = measure(ops, func() int {
		for r := 0; r < rounds; r++ {
			for _, b := range mix {
				if err := walkTLVs(b); err != nil {
					panic(err) // parsed cleanly a moment ago
				}
			}
		}
		return 0
	})
	return enc, dec, nil
}

func (pb prober) probeSNMPCodec(mix [][]byte) (enc, dec cost, err error) {
	msgs := make([]*snmp.Message, len(mix))
	for i, b := range mix {
		if msgs[i], err = snmp.Decode(b); err != nil {
			return enc, dec, fmt.Errorf("snmp codec probe: %w", err)
		}
	}
	rounds := pb.n(50)
	ops := rounds * len(mix)
	enc = measure(ops, func() int {
		for r := 0; r < rounds; r++ {
			for _, m := range msgs {
				m.Encode()
			}
		}
		return 0
	})
	dec = measure(ops, func() int {
		for r := 0; r < rounds; r++ {
			for _, b := range mix {
				if _, err := snmp.Decode(b); err != nil {
					panic(err) // decoded cleanly a moment ago
				}
			}
		}
		return 0
	})
	return enc, dec, nil
}

// pollOIDs are what one cots host poll asks for.
var pollOIDs = []mib.OID{mib.SysUpTime, mib.IfEntry.Append(10, 1)}

func (pb prober) probeAgentHandle(view *mib.NodeView) (cost, error) {
	agent := snmp.NewAgent(view.Tree, "public")
	var binds []snmp.VarBind
	for _, o := range pollOIDs {
		binds = append(binds, snmp.VarBind{OID: o, Value: mib.Null()})
	}
	req := (&snmp.Message{Version: snmp.V2c, Community: "public",
		PDU: snmp.PDU{Type: snmp.GetRequest, RequestID: 1, VarBinds: binds}}).Encode()
	resp, err := snmp.Decode(agent.Handle(req))
	if err != nil || len(resp.PDU.VarBinds) != len(pollOIDs) {
		return cost{}, fmt.Errorf("agent probe: poll PDU not answered (%v)", err)
	}
	ops := pb.n(10_000)
	return measure(ops, func() int {
		for i := 0; i < ops; i++ {
			agent.Handle(req)
		}
		return 0
	}), nil
}

func (pb prober) probeMIB(view *mib.NodeView) (get, next cost, err error) {
	for _, o := range pollOIDs {
		if _, ok := view.Tree.Get(o); !ok {
			return get, next, fmt.Errorf("mib probe: %v missing from the node view", o)
		}
	}
	rounds := pb.n(10_000)
	ops := rounds * len(pollOIDs)
	get = measure(ops, func() int {
		for i := 0; i < rounds; i++ {
			for _, o := range pollOIDs {
				view.Tree.Get(o)
			}
		}
		return 0
	})
	next = measure(ops, func() int {
		for i := 0; i < rounds; i++ {
			for _, o := range pollOIDs {
				view.Tree.Next(o)
			}
		}
		return 0
	})
	return get, next, nil
}

// discardSink takes batches and drops them: the store's own batching runs,
// the results encoding (which has its own span) does not.
type discardSink struct{}

func (discardSink) WriteBatch(string, string, string, int64, []float64) error { return nil }

// probeStore is the db workloads' store: sketches on, results batching on
// into a sink that discards.
func (pb prober) probeStore() *core.Database {
	db := core.NewDatabase()
	db.EnableSketches(sketch.Thresholds{})
	db.EnableResults(discardSink{}, 16)
	return db
}

func (pb prober) probeRecord(hot bool) cost {
	ops := pb.n(200_000)
	in := genDBInputs(pb.seed, ops)
	if hot {
		for i := range in.series {
			in.series[i] = 0
		}
	}
	db := pb.probeStore()
	g := valueGen(pb.seed*2654435761 + 1)
	return measure(ops, func() int {
		for i := 0; i < ops; i++ {
			db.Record(in.measurement(i, &g))
		}
		return 0
	})
}

func (pb prober) probeReads() (fresh, quant, mark cost) {
	ops := pb.n(200_000)
	in := genDBInputs(pb.seed, ops)
	db := pb.probeStore()
	g := valueGen(pb.seed*2654435761 + 1)
	for i := 0; i < ops; i++ {
		db.Record(in.measurement(i, &g))
	}
	now := time.Duration(ops) * dbTick
	fresh = measure(ops, func() int {
		for i := 0; i < ops; i++ {
			k := in.keys[in.series[i]]
			db.Fresh(now, k.path, k.metric, dbTTL)
		}
		return 0
	})
	qops := pb.n(20_000) // a Quantile costs ~100 Fresh calls
	quant = measure(qops, func() int {
		for i := 0; i < qops; i++ {
			k := in.keys[in.series[i]]
			db.Quantile(k.path, k.metric, 0.95)
		}
		return 0
	})
	sweeps := pb.n(500)
	mark = measure(sweeps, func() int {
		for i := 0; i < sweeps; i++ {
			db.MarkStale(now, dbTTL)
		}
		return 0
	})
	return fresh, quant, mark
}

func (pb prober) probeSketch() (update, quantile, merge cost) {
	fill := func(n int, phase float64) *sketch.Sketch {
		var s sketch.Sketch
		for i := 0; i < n; i++ {
			s.Update(phase + float64(i%997)/997)
		}
		return &s
	}
	s := fill(4*sketch.BufCap, 0)
	ops := pb.n(300_000)
	update = measure(ops, func() int {
		for i := 0; i < ops; i++ {
			s.Update(float64(i%997) / 997)
		}
		return 0
	})
	// A part-filled pending buffer is the state a query usually finds.
	q := fill(4*sketch.BufCap+sketch.BufCap/2, 0)
	qops := pb.n(10_000)
	acc := 0.0
	quantile = measure(qops, func() int {
		for i := 0; i < qops; i++ {
			acc += q.Quantile(0.95)
		}
		return 0
	})
	src, base := fill(4*sketch.BufCap, 0.25), fill(4*sketch.BufCap, 0)
	mops := pb.n(5_000)
	merge = measure(mops, func() int {
		for i := 0; i < mops; i++ {
			dst := *base
			dst.Merge(src)
		}
		return 0
	})
	_ = acc
	return update, quantile, merge
}

// e16Traps are the trap streams trap-storm-tree offers one leaf.
func e16Traps() []director.Trap {
	var out []director.Trap
	for n := 0; n < 3; n++ {
		out = append(out, director.Trap{Source: fmt.Sprintf("probe0.%d", n),
			Path: "h1-2->h1-3", Rising: true, Count: 1})
	}
	return out
}

func (pb prober) probeOfferTrap() (cost, error) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	d := director.New(nw.NewHost("root"), "root", director.Config{
		QueueCap:       4096,
		TrapProcTime:   time.Nanosecond,
		CoalesceWindow: 10 * time.Hour, // steady state: every repeat coalesces
		FlushEvery:     time.Hour,
	})
	d.Start()
	defer d.Stop()
	traps := e16Traps()
	// The flush timer recurs forever, so drain in bounded virtual steps.
	drain := func() int { return k.RunUntil(k.Now() + time.Millisecond) }
	ops := pb.n(40_000)
	c := measure(ops, func() int {
		n := 0
		for i := 0; i < ops; i++ {
			d.OfferTrap(traps[i%len(traps)])
			if i%1024 == 1023 {
				n += drain()
			}
		}
		return n + drain()
	})
	if d.Stats.TrapsDropped > 0 || d.Stats.TrapsProcessed == 0 {
		return c, fmt.Errorf("offer-trap probe: dropped %d, processed %d", d.Stats.TrapsDropped, d.Stats.TrapsProcessed)
	}
	return c, nil
}

func (pb prober) probeCoalesce() cost {
	co := director.NewCoalescer(200 * time.Millisecond)
	traps := e16Traps()
	ops := pb.n(500_000)
	now := time.Duration(0)
	return measure(ops, func() int {
		for i := 0; i < ops; i++ {
			now += 3 * time.Millisecond
			co.Offer(traps[i%len(traps)], now)
			if i%64 == 63 {
				co.Flush(now)
			}
			co.Take()
		}
		return 0
	})
}

// stubMember is the least a leaf director needs beneath it: a database to
// re-export from. The probe fills it directly.
type stubMember struct{ core.DirectorBase }

func (m *stubMember) Start() {}

func (pb prober) probeReexport() (cost, error) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	cfg := director.Config{
		QueueCap:       4096,
		RecordProcTime: time.Nanosecond,
		FlushEvery:     time.Hour,
		Supervise:      time.Hour,
		WatchdogEvery:  time.Hour,
		Reexport:       time.Millisecond,
		MaxReexport:    time.Millisecond,
	}
	root := director.New(nw.NewHost("root"), "root", cfg)
	m := &stubMember{core.NewDirectorBase(k)}
	m.Database().EnableSketches(sketch.Thresholds{})
	leaf := director.NewLeaf(nw.NewHost("leaf"), "leaf", m, cfg)
	root.AddChild(leaf)
	path := core.NewPath(core.ProcessRef{Host: "h1-2"}, core.ProcessRef{Host: "h1-3"})
	mets := []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}
	root.Submit(core.Request{Paths: []core.Path{path}, Metrics: mets})
	for _, met := range mets {
		for j := 0; j < 4*sketch.BufCap; j++ {
			m.Database().Record(core.Measurement{Path: path.ID, Metric: met,
				Value: float64(j%97) * 0.01, Quality: core.QualityApproximate})
		}
	}
	root.Start()
	defer root.Stop()
	ops := pb.n(5_000)
	c := measure(ops, func() int {
		return k.RunUntil(k.Now() + time.Duration(ops)*cfg.Reexport)
	})
	if root.Stats.RecordsIn == 0 {
		return c, fmt.Errorf("re-export probe: the root ingested nothing")
	}
	return c, nil
}
