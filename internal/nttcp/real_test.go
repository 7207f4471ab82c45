package nttcp

import (
	"testing"
	"time"
)

// These tests exercise the real-UDP face of the tool over loopback.

func startRealServer(t *testing.T) *RealServer {
	t.Helper()
	srv, err := ListenReal("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	go srv.Serve()
	return srv
}

func TestRealReachability(t *testing.T) {
	srv := startRealServer(t)
	c := NewRealClient(Config{Timeout: time.Second})
	ok, rtt, err := c.ReachabilityReal(srv.Addr().String())
	if err != nil || !ok {
		t.Fatalf("reachability over loopback: %v %v", ok, err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Fatalf("rtt = %v", rtt)
	}
	// Nobody listening on a fresh port.
	ok, _, err = c.ReachabilityReal("127.0.0.1:1")
	if err != nil || ok {
		t.Fatalf("reachability to closed port: %v %v", ok, err)
	}
}

func TestRealMeasureLoopback(t *testing.T) {
	srv := startRealServer(t)
	c := NewRealClient(Config{MsgLen: 4096, InterSend: time.Millisecond, Count: 32, Timeout: 2 * time.Second})
	res, err := c.MeasureReal(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if res.Received != 32 || res.Loss != 0 {
		t.Fatalf("res = %+v", res)
	}
	// Loopback moves 4 KiB/ms ≈ 33 Mb/s offered; measured should be the
	// same order (sleep jitter makes the real clock imprecise).
	if res.ThroughputBps < 1e6 {
		t.Fatalf("throughput = %.0f b/s", res.ThroughputBps)
	}
	if srv.tests.Load() != 1 {
		t.Fatalf("server completed %d tests", srv.tests.Load())
	}
}

func TestRealMeasureWithOffsetExchange(t *testing.T) {
	srv := startRealServer(t)
	c := NewRealClient(Config{MsgLen: 512, InterSend: time.Millisecond, Count: 8,
		Timeout: 2 * time.Second, ComputeOffset: true, OffsetSamples: 4})
	res, err := c.MeasureReal(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// The server's epoch differs from the client's, so the raw offset is
	// arbitrary; the corrected latency must be small and non-negative-ish.
	if res.OneWayLatency < -5*time.Millisecond || res.OneWayLatency > 100*time.Millisecond {
		t.Fatalf("corrected loopback latency = %v", res.OneWayLatency)
	}
}
