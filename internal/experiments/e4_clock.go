package experiments

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// E4 reproduces §5.1.3: "the overhead of the clock offset calculation was
// significantly intrusive compared to the overhead of running a clock
// synchronization protocol (e.g. NTP)". We measure both the traffic cost
// and the residual latency error of the two approaches.
func E4(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E4",
		Title: "One-way-latency clock correction: per-measurement offset exchange vs background NTP",
		Paper: "per-measurement offset computation significantly more intrusive than running NTP",
		Columns: []string{"method", "measurements", "sync pkts total", "sync bytes/measurement",
			"mean abs latency err"},
	}
	trials := pickN(quick, 10, 40)
	horizon := pick(quick, 30*time.Second, 2*time.Minute)

	run := func(useExchange bool) (int, uint64, uint64, time.Duration) {
		k := newKernel()
		defer k.Close()
		nw := netsim.New(k, 17)
		srv := nw.NewHost("server")
		cli := nw.NewHost("client")
		seg := nw.NewSegment("lan", netsim.Ethernet10())
		seg.Attach(srv)
		seg.Attach(cli)
		// The server's clock is off by 40 ms and drifts 80 ppm.
		srvClock := &vclock.Clock{Offset: 40 * time.Millisecond, Drift: 80e-6}
		srv.LocalClock = srvClock
		nttcp.StartServer(srv, 0)

		var syncPkts, syncBytes uint64
		cfg := nttcp.Config{MsgLen: 1024, InterSend: 10 * time.Millisecond, Count: 8, OffsetSamples: 8}
		cfg.ComputeOffset = useExchange
		var ntp *vclock.SyncClient
		if !useExchange {
			vclock.StartSyncServer(cli) // client's clock is the reference
			ntp = &vclock.SyncClient{Node: srv, Clock: srvClock, Server: "client", Poll: 16 * time.Second}
			ntp.Run()
		}
		c := nttcp.NewClient(cli, cfg)
		var errs []float64
		measured := 0
		cli.Spawn("trials", func(p *sim.Proc) {
			if ntp != nil {
				p.Sleep(time.Second) // let the first sync land
			}
			for i := 0; i < trials; i++ {
				res, err := c.Measure(p, "server", 0)
				if err == nil {
					if useExchange {
						syncPkts += uint64(2 * cfg.OffsetSamples)
						syncBytes += uint64(2 * cfg.OffsetSamples * (33 + netsim.HeaderOverhead))
					}
					// Latency error = (true server-client offset) minus
					// the correction applied. The client clock is the
					// true reference here, so the server's residual
					// clock error IS the true offset at measurement time.
					errDur := srvClock.ErrorAt(p.Now()) - res.Offset
					if errDur < 0 {
						errDur = -errDur
					}
					errs = append(errs, errDur.Seconds())
					measured++
				}
				p.Sleep(2 * time.Second)
			}
		})
		k.RunUntil(horizon)
		if ntp != nil {
			syncPkts = ntp.PacketsSent + ntp.PacketsRecv
			syncBytes = 2 * ntp.BytesSent
		}
		meanErr := time.Duration(metrics.Mean(errs) * float64(time.Second))
		return measured, syncPkts, syncBytes, meanErr
	}

	for _, method := range []struct {
		name     string
		exchange bool
	}{
		{"per-measurement offset exchange", true},
		{"background NTP (16s poll)", false},
	} {
		n, pkts, bytes, meanErr := run(method.exchange)
		perMeas := uint64(0)
		if n > 0 {
			perMeas = bytes / uint64(n)
		}
		t.AddRow(method.name, n, report.Count(pkts), report.Count(perMeas), report.Dur(meanErr))
	}
	t.AddNote("exchange cost scales with measurement rate; NTP cost amortizes across all of them")
	return t
}
