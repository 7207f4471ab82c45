package nttcp

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// BenchmarkMeasure times one warm simulated Measure of the default (RTDS)
// shape, 32 messages of 8,192 bytes 30 ms apart, over a 100 Mb/s Ethernet:
// what a hifi sweep spends on each path.
func BenchmarkMeasure(b *testing.B) {
	k, srv, cli := fixture(b, netsim.Ethernet100())
	StartServer(srv, 0)
	c := NewClient(cli, Config{})
	trigger := sim.NewQueue[struct{}](k, 0)
	var calls, bad int
	cli.Spawn("tester", func(p *sim.Proc) {
		for {
			trigger.Get(p, -1)
			calls++
			if res, err := c.Measure(p, "server", 0); err != nil || res.Received != res.Sent {
				bad++
			}
		}
	})
	measure := func() {
		trigger.Put(struct{}{})
		k.Run()
	}
	// Two calls grow the free lists, the queues' waiter lists and the
	// responder's burst table to what a measurement uses.
	const warm = 2
	for i := 0; i < warm; i++ {
		measure()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure()
	}
	b.StopTimer()
	if calls != b.N+warm || bad != 0 {
		b.Fatalf("%d measurements for %d rounds, %d failed or lost messages", calls, b.N+warm, bad)
	}
}
