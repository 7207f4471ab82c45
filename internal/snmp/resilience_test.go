package snmp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// lossyFixture is agentFixture plus the segment, so tests can inject loss.
func lossyFixture(t testing.TB) (*sim.Kernel, *netsim.SharedSegment, *Client) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 21)
	mgr := nw.NewHost("mgr")
	ag := nw.NewHost("agent1")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(mgr)
	seg.Attach(ag)
	view := mib.NewNodeView(ag)
	agent := NewAgent(view.Tree, "public")
	agent.ServeSim(ag, 0)
	return k, seg, NewClient(mgr, "public")
}

func TestRetryRecoversAfterSegmentLossClears(t *testing.T) {
	// Attempt 1 is sent into a fully lossy segment; the loss clears while
	// the client sits in its backoff wait, so the retry succeeds. The
	// counters must attribute this correctly: one retry, one response, no
	// timeout (the request as a whole succeeded).
	k, seg, client := lossyFixture(t)
	client.Timeout = 100 * time.Millisecond
	client.Retries = 2
	client.Backoff = resilience.NewBackoff(k.Rand(1), 50*time.Millisecond, 400*time.Millisecond, 0)
	seg.SetLossProb(1.0)
	k.At(120*time.Millisecond, func() { seg.SetLossProb(0) })

	var err error
	client.node.Spawn("tester", func(p *sim.Proc) {
		_, err = client.Get(p, "agent1", mib.SysUpTime)
	})
	k.RunUntil(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := client.Stats
	if s.Requests != 2 || s.Retries != 1 || s.Responses != 1 || s.Timeouts != 0 {
		t.Fatalf("stats = %+v, want 2 requests / 1 retry / 1 response / 0 timeouts", s)
	}
}

func TestAllRetriesLostCountsOneTimeout(t *testing.T) {
	// Permanent loss: every attempt goes unanswered. The request must
	// report ErrTimeout exactly once while the retry counter reflects
	// every extra attempt put on the wire.
	k, seg, client := lossyFixture(t)
	client.Timeout = 100 * time.Millisecond
	client.Retries = 3
	client.Backoff = resilience.NewBackoff(k.Rand(1), 50*time.Millisecond, 400*time.Millisecond, 0)
	seg.SetLossProb(1.0)

	var err error
	client.node.Spawn("tester", func(p *sim.Proc) {
		_, err = client.Get(p, "agent1", mib.SysUpTime)
	})
	k.RunUntil(10 * time.Second)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	s := client.Stats
	if s.Requests != 4 || s.Retries != 3 || s.Responses != 0 || s.Timeouts != 1 {
		t.Fatalf("stats = %+v, want 4 requests / 3 retries / 0 responses / 1 timeout", s)
	}
}

func TestBudgetCapsAttemptsUnderLoss(t *testing.T) {
	// A per-request budget bounds how long a dead agent can stall the
	// caller regardless of the configured retry count: with Timeout 100ms,
	// backoff 50ms, and budget 250ms only two of six permitted attempts
	// fit (0-100ms listen, 50ms wait, 150-250ms listen).
	k, seg, client := lossyFixture(t)
	client.Timeout = 100 * time.Millisecond
	client.Retries = 5
	client.Backoff = resilience.NewBackoff(k.Rand(1), 50*time.Millisecond, 400*time.Millisecond, 0)
	client.Budget = 250 * time.Millisecond
	seg.SetLossProb(1.0)

	var err error
	var took time.Duration
	client.node.Spawn("tester", func(p *sim.Proc) {
		start := p.Now()
		_, err = client.Get(p, "agent1", mib.SysUpTime)
		took = p.Now() - start
	})
	k.RunUntil(10 * time.Second)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if took > 250*time.Millisecond {
		t.Fatalf("request took %v, budget was 250ms", took)
	}
	s := client.Stats
	if s.Requests != 2 || s.Timeouts != 1 {
		t.Fatalf("stats = %+v, want exactly 2 requests / 1 timeout under budget", s)
	}
}

func TestStaleResponseDroppedNotMiscounted(t *testing.T) {
	// A response that arrives after its request timed out must not satisfy
	// (or corrupt the counters of) a later request: the client matches on
	// RequestID and drops the stale datagram. The responder here delays
	// only its first answer past the client timeout.
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 21)
	mgr := nw.NewHost("mgr")
	ag := nw.NewHost("agent1")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(mgr)
	seg.Attach(ag)

	var lateLen int
	ag.Spawn("slow-agent", func(p *sim.Proc) {
		sock := ag.OpenUDP(AgentPort)
		first := true
		for {
			pkt, ok := sock.Recv(p, -1)
			if !ok {
				return
			}
			msg, err := Decode(pkt.Payload)
			if err != nil {
				continue
			}
			resp := &Message{Version: msg.Version, Community: msg.Community}
			resp.PDU = PDU{Type: GetResponse, RequestID: msg.PDU.RequestID, VarBinds: msg.PDU.VarBinds}
			b := resp.Encode()
			if first {
				first = false
				lateLen = len(b)
				p.Sleep(150 * time.Millisecond) // past the client's window
			}
			sock.SendTo(pkt.Src, pkt.SrcPort, b)
		}
	})

	client := NewClient(mgr, "public")
	client.Timeout = 100 * time.Millisecond
	client.Retries = 0

	var err1, err2 error
	client.node.Spawn("tester", func(p *sim.Proc) {
		_, err1 = client.Get(p, "agent1", mib.SysUpTime)
		// The stale answer to request 1 lands inside this request's listen
		// window; only request 2's own response may be counted.
		_, err2 = client.Get(p, "agent1", mib.SysUpTime)
	})
	k.RunUntil(5 * time.Second)
	if !errors.Is(err1, ErrTimeout) {
		t.Fatalf("first request: err = %v, want ErrTimeout", err1)
	}
	if err2 != nil {
		t.Fatalf("second request failed: %v", err2)
	}
	s := client.Stats
	if s.Requests != 2 || s.Timeouts != 1 || s.Responses != 1 {
		t.Fatalf("stats = %+v, want 2 requests / 1 timeout / 1 response", s)
	}
	if lateLen == 0 || s.BytesRecv >= uint64(2*lateLen) {
		t.Fatalf("BytesRecv = %d (response len %d): stale response was counted", s.BytesRecv, lateLen)
	}
}

// TestClientTelemetryReadsStats: every counter the client publishes is a
// field of Stats, read when asked — through a lost attempt, a retry that
// succeeds and a request that times out for good.
func TestClientTelemetryReadsStats(t *testing.T) {
	k, seg, client := lossyFixture(t)
	client.Timeout = 100 * time.Millisecond
	client.Retries = 1
	reg := telemetry.NewRegistry()
	client.EnableTelemetry(reg, "c")
	client.EnableTelemetry(nil, "off") // a nil registry is a no-op
	seg.SetLossProb(1.0)
	k.At(50*time.Millisecond, func() { seg.SetLossProb(0) })
	k.At(time.Second, func() { seg.SetLossProb(1.0) })

	client.node.Spawn("tester", func(p *sim.Proc) {
		client.Get(p, "agent1", mib.SysUpTime) // first attempt lost, retry answered
		p.Sleep(2 * time.Second)
		client.Get(p, "agent1", mib.SysUpTime) // both attempts lost
	})
	k.RunUntil(10 * time.Second)

	s := client.Stats
	if s.Requests != 4 || s.Retries != 2 || s.Responses != 1 || s.Timeouts != 1 || s.BytesRecv == 0 {
		t.Fatalf("scenario drifted: stats = %+v", s)
	}
	want := []struct {
		name string
		want uint64
	}{
		{"c.requests", s.Requests},
		{"c.retries", s.Retries},
		{"c.timeouts", s.Timeouts},
		{"c.responses", s.Responses},
		{"c.stale_drops", s.StaleDrops},
		{"c.bytes_sent", s.BytesSent},
		{"c.bytes_recv", s.BytesRecv},
	}
	for _, c := range want {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if reg.Len() != len(want) {
		t.Errorf("%d instruments registered, %d checked against Stats", reg.Len(), len(want))
	}
}
