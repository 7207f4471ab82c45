package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// traceKernel schedules a deterministic workload on k, tagged with name,
// appending "name@time" strings to out as events fire.
func traceWorkload(k *Kernel, out *[]string) {
	tick := 0
	var t Timer
	t = k.Every(3*time.Millisecond, func() {
		tick++
		*out = append(*out, fmt.Sprintf("tick%d@%v", tick, k.Now()))
		if tick == 5 {
			t.Stop()
		}
	})
	k.After(7*time.Millisecond, func() {
		*out = append(*out, fmt.Sprintf("oneshot@%v", k.Now()))
	})
	k.Spawn("worker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(4 * time.Millisecond)
			*out = append(*out, fmt.Sprintf("proc%d@%v", i, p.Now()))
		}
	})
}

// TestSingleShardMatchesPlainKernel is the bit-identity contract: a 1-shard
// group's event order, timestamps, and event count match an ungrouped
// kernel exactly.
func TestSingleShardMatchesPlainKernel(t *testing.T) {
	var plain, sharded []string
	k := NewKernel()
	traceWorkload(k, &plain)
	np := k.RunUntil(50 * time.Millisecond)
	k.Close()

	g := NewShardGroup(1, time.Millisecond)
	sk := g.Shard(0)
	traceWorkload(sk, &sharded)
	ns := sk.RunUntil(50 * time.Millisecond)
	g.Close()

	if np != ns {
		t.Fatalf("event counts differ: plain %d, 1-shard %d", np, ns)
	}
	if fmt.Sprint(plain) != fmt.Sprint(sharded) {
		t.Fatalf("traces differ:\nplain:   %v\nsharded: %v", plain, sharded)
	}
	if sk.Now() != 50*time.Millisecond {
		t.Fatalf("clock %v, want 50ms", sk.Now())
	}
}

// TestCrossShardSendDelivers checks a message staged on one shard fires on
// the other at exactly its timestamp.
func TestCrossShardSendDelivers(t *testing.T) {
	g := NewShardGroup(2, time.Millisecond)
	defer g.Close()
	var gotAt time.Duration
	g.Shard(0).After(2*time.Millisecond, func() {
		g.Send(0, 1, g.Shard(0).Now()+time.Millisecond, func() {
			gotAt = g.Shard(1).Now()
		})
	})
	g.Run()
	if gotAt != 3*time.Millisecond {
		t.Fatalf("delivered at %v, want 3ms", gotAt)
	}
	if g.CrossShardMessages() != 1 {
		t.Fatalf("xmsgs = %d, want 1", g.CrossShardMessages())
	}
}

// TestCrossShardPingPong bounces an event between two shards and checks
// both clocks advance in lockstep with the expected cadence.
func TestCrossShardPingPong(t *testing.T) {
	const L = time.Millisecond
	g := NewShardGroup(2, L)
	defer g.Close()
	var hops []string
	var bounce func(from, to int)
	bounce = func(from, to int) {
		k := g.Shard(from)
		hops = append(hops, fmt.Sprintf("%d@%v", from, k.Now()))
		if len(hops) >= 6 {
			return
		}
		g.Send(from, to, k.Now()+L, func() { bounce(to, from) })
	}
	g.Shard(0).At(0, func() { bounce(0, 1) })
	g.Run()
	want := "[0@0s 1@1ms 0@2ms 1@3ms 0@4ms 1@5ms]"
	if fmt.Sprint(hops) != want {
		t.Fatalf("hops = %v, want %s", hops, want)
	}
}

// TestMultiShardRepeatable runs the same two-shard workload twice and
// demands identical traces — the (seed, shard-count) determinism contract.
func TestMultiShardRepeatable(t *testing.T) {
	run := func() []string {
		// One trace per shard: shards run on separate goroutines, so shared
		// mutable state across shards is forbidden by the ownership rules.
		out := make([][]string, 2)
		g := NewShardGroup(2, time.Millisecond)
		defer g.Close()
		for s := 0; s < 2; s++ {
			s := s
			k := g.Shard(s)
			traceWorkload(k, &out[s])
			k.After(5*time.Millisecond, func() {
				g.Send(s, 1-s, k.Now()+2*time.Millisecond, func() {
					out[1-s] = append(out[1-s], fmt.Sprintf("x%d@%v", 1-s, g.Shard(1-s).Now()))
				})
			})
		}
		g.Shard(0).RunUntil(40 * time.Millisecond)
		return append(append([]string{}, out[0]...), out[1]...)
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("repeated runs diverged:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no events traced")
	}
}

// TestLookaheadViolationPanics: a cross-shard send below now+lookahead is a
// protocol violation and must fail loudly.
func TestLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(2, 5*time.Millisecond)
	defer g.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on lookahead violation")
		}
	}()
	g.Send(0, 1, time.Millisecond, func() {})
}

// TestGroupedKernelRunDelegates: Run on a member kernel drives the whole
// group, and RunUntil advances every shard's clock to the deadline.
func TestGroupedKernelRunDelegates(t *testing.T) {
	g := NewShardGroup(3, time.Millisecond)
	defer g.Close()
	fired := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		g.Shard(i).At(time.Duration(i)*time.Millisecond, func() { fired[i] = true })
	}
	n := g.Shard(2).RunUntil(10 * time.Millisecond)
	if n != 3 {
		t.Fatalf("processed %d events, want 3", n)
	}
	for i, f := range fired {
		if !f {
			t.Fatalf("shard %d event did not fire", i)
		}
	}
	for i := 0; i < 3; i++ {
		if g.Shard(i).Now() != 10*time.Millisecond {
			t.Fatalf("shard %d clock %v, want 10ms", i, g.Shard(i).Now())
		}
	}
}

// TestShardProcsRunConcurrently: procs on different shards interleave
// within windows without tripping the race detector, and cross-shard sends
// from proc context are delivered.
func TestShardProcsRunConcurrently(t *testing.T) {
	const L = time.Millisecond
	g := NewShardGroup(4, L)
	defer g.Close()
	counts := make([]int, 4)
	for s := 0; s < 4; s++ {
		s := s
		g.Shard(s).Spawn("w", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(100 * time.Microsecond)
				counts[s]++
				if i%10 == 0 {
					g.Send(s, (s+1)%4, p.Now()+L, func() {})
				}
			}
		})
	}
	g.Shard(0).RunUntil(20 * time.Millisecond)
	for s, c := range counts {
		if c != 100 {
			t.Fatalf("shard %d proc ran %d iterations, want 100", s, c)
		}
	}
	if g.CrossShardMessages() != 40 {
		t.Fatalf("xmsgs = %d, want 40", g.CrossShardMessages())
	}
}

// TestIdlePeersInvisible: a workload on shard 0 of a 4-shard group whose
// peers never have work is sliced into real lookahead windows — there is no
// run-ahead policy for a lone active shard — and the slicing is invisible:
// tick trace, event count and final clock equal a plain kernel's.
func TestIdlePeersInvisible(t *testing.T) {
	const span, lookahead = time.Second, time.Millisecond
	ticking := func(k *Kernel, out *[]string) {
		k.Every(700*time.Microsecond, func() {
			*out = append(*out, fmt.Sprint(k.Now()))
		})
	}
	var plain, sharded []string
	k := NewKernel()
	ticking(k, &plain)
	np := k.RunUntil(span)
	k.Close()

	g := NewShardGroup(4, lookahead)
	defer g.Close()
	sk := g.Shard(0)
	ticking(sk, &sharded)
	ns := sk.RunUntil(span)

	if np != ns || fmt.Sprint(plain) != fmt.Sprint(sharded) {
		t.Fatalf("plain kernel: %d events, shard 0 of 4: %d events; traces equal = %v",
			np, ns, fmt.Sprint(plain) == fmt.Sprint(sharded))
	}
	if k.Now() != span || sk.Now() != span {
		t.Fatalf("final clocks %v and %v, want %v", k.Now(), sk.Now(), span)
	}
	// Every window starts at a pending tick and spans one lookahead, so the
	// count is of the order span/lookahead: between one window per tick and
	// one per lookahead.
	if w, ticks, floor := g.Windows(), uint64(len(plain)), uint64(span/lookahead)/2; w < floor || w > ticks {
		t.Fatalf("windows = %d, want within [%d, %d]", w, floor, ticks)
	}
}

// TestRunBoundaries pins the inclusive RunUntil deadline and the draining
// Run on every route into the one dispatch loop: a plain kernel, the 1-shard
// short-circuit, and windowed execution (with the events spread over the
// first and last shard).
func TestRunBoundaries(t *testing.T) {
	const deadline = 10 * time.Millisecond
	const far = maxTime - time.Hour
	for _, tc := range []struct {
		name   string
		shards int // 0: ungrouped kernel
	}{{"plain", 0}, {"1-shard", 1}, {"3-shard", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			last := k
			if tc.shards > 0 {
				g := NewShardGroup(tc.shards, time.Millisecond)
				k, last = g.Shard(0), g.Shard(tc.shards-1)
			}
			defer k.Close()
			var fired []string
			k.At(deadline, func() { fired = append(fired, "at") })
			last.At(deadline+1, func() { fired = append(fired, "after") })
			last.At(far, func() { fired = append(fired, "far") })
			for _, step := range []struct {
				what      string
				run       func() int
				wantFired string
				wantNow   time.Duration
			}{
				{"RunUntil(deadline)", func() int { return k.RunUntil(deadline) }, "[at]", deadline},
				{"RunUntil(deadline+1ns)", func() int { return k.RunUntil(deadline + 1) }, "[at after]", deadline + 1},
				{"Run()", k.Run, "[at after far]", far},
			} {
				if n := step.run(); n != 1 || fmt.Sprint(fired) != step.wantFired || last.Now() != step.wantNow {
					t.Fatalf("%s: %d events, fired %v, clock %v; want 1 event, %s, %v",
						step.what, n, fired, last.Now(), step.wantFired, step.wantNow)
				}
			}
		})
	}
}

func TestNewShardGroupValidation(t *testing.T) {
	for _, tc := range []struct {
		n  int
		la time.Duration
	}{{0, time.Millisecond}, {2, 0}, {3, -time.Second}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShardGroup(%d, %v) did not panic", tc.n, tc.la)
				}
			}()
			NewShardGroup(tc.n, tc.la)
		}()
	}
}

// TestGroupedCloseReleasesAllShards: Close via any member unwinds parked
// procs on every shard, shard by shard, before it returns.
func TestGroupedCloseReleasesAllShards(t *testing.T) {
	g := NewShardGroup(2, time.Millisecond)
	var released []int
	for s := 0; s < 2; s++ {
		s := s
		g.Shard(s).Spawn("parked", func(p *Proc) {
			defer func() { released = append(released, s) }()
			p.Sleep(time.Hour)
		})
	}
	g.Shard(0).RunUntil(time.Millisecond)
	g.Shard(1).Close() // member Close must close the whole group
	if !reflect.DeepEqual(released, []int{0, 1}) {
		t.Fatalf("procs unwound by group close: shards %v, want [0 1]", released)
	}
}
