package sim

import (
	"testing"
	"time"
)

// The steady-state allocation guarantees of the kernel, measured: event
// scheduling and dispatch, the proc switch, Queue and FIFO, and the
// cross-shard hand-off. DESIGN.md §8 maps each allocation-free function to
// the test here or elsewhere that runs it.

func TestAfterArgAllocatesNothing(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	type payload struct{ fired int }
	arg := &payload{}
	fn := func(a any) { a.(*payload).fired++ }
	k.AfterArg(time.Microsecond, fn, arg) // warm the event pool
	k.Run()
	if n := testing.AllocsPerRun(200, func() {
		k.AfterArg(time.Microsecond, fn, arg)
		k.AtArg(k.Now()+time.Microsecond, fn, arg)
		k.Run()
	}); n != 0 {
		t.Fatalf("AtArg/AfterArg + dispatch allocate %v objects per round, want 0", n)
	}
	if arg.fired != 1+2*201 {
		t.Fatalf("fired %d times, want %d", arg.fired, 1+2*201)
	}
}

// TestSendArgAllocatesNothingPerMessage: a cross-shard message costs no
// allocation. Each RunUntil starts and stops the group's workers, which does
// allocate, so the test rallies a ball between two shards for 200 hops and
// for 2,000: the same count per run means nothing is paid per message.
func TestSendArgAllocatesNothingPerMessage(t *testing.T) {
	const L = time.Microsecond
	g := NewShardGroup(2, L)
	defer g.Close()
	type ball struct{ at, hops int }
	var bounce func(any)
	bounce = func(a any) {
		b := a.(*ball)
		from := b.at
		b.at, b.hops = 1-from, b.hops+1
		g.SendArg(from, b.at, g.Shard(from).Now()+L, bounce, b)
	}
	b := &ball{}
	g.Shard(0).AtArg(0, bounce, b)
	rally := func(hops int) func() {
		return func() { g.RunUntil(g.Shard(0).Now() + time.Duration(hops)*L) }
	}
	rally(2000)() // grow the stage slices and heaps to their working size
	short := testing.AllocsPerRun(20, rally(200))
	long := testing.AllocsPerRun(20, rally(2000))
	if short != long {
		t.Fatalf("a run of 200 hops allocates %v objects and one of 2,000 %v: %v per cross-shard message, want 0",
			short, long, (long-short)/1800)
	}
	// One hop per microsecond, from the serve at 0 inclusive.
	if want := 1 + 2000 + 21*200 + 21*2000; b.hops != want {
		t.Fatalf("%d hops, want %d", b.hops, want)
	}
}

// TestProcSwitchAllocatesNothing: once a proc's coroutine exists, switching
// into it and back costs no allocation, by either road into resumeProc — the
// wake-up event of a Sleep, and a Put that finds the proc blocked in Get.
func TestProcSwitchAllocatesNothing(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k, 0)
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for {
			q.Get(p, -1)
		}
	})
	round := func() {
		q.Put(1)
		k.RunUntil(k.Now() + time.Millisecond)
	}
	round()
	round()
	before := k.ProcSwitches()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("a Sleep round trip plus a Put -> blocked-Get wake allocate %v objects, want 0", n)
	}
	if got := k.ProcSwitches() - before; got != 2*201 {
		t.Fatalf("%d proc switches over 201 rounds, want one per proc per round", got)
	}
}

func TestQueuePutGetAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{
		{"blocking Get without timeout", -1},
		{"blocking Get with timeout", time.Second},
	} {
		k := NewKernel()
		q := NewQueue[*int](k, 0)
		item, got := new(int), 0
		k.Spawn("consumer", func(p *Proc) {
			for {
				if _, ok := q.Get(p, tc.timeout); ok {
					got++
				}
			}
		})
		// Each round: the consumer is parked in Get; Put hands it the item
		// (stopping its timer), and the run lets it come back round to park
		// in the next Get. The horizon stays short of the timeout.
		round := func() {
			q.Put(item)
			k.RunUntil(k.Now() + time.Millisecond)
		}
		round()
		round()
		if n := testing.AllocsPerRun(200, round); n != 0 {
			t.Errorf("%s: Put + Get allocate %v objects per item, want 0", tc.name, n)
		}
		if got != 203 {
			t.Errorf("%s: consumer got %d items, want 203", tc.name, got)
		}
		k.Close()
	}
}

func TestQueueTimedOutGetAllocatesNothingAndWaiterIsReusable(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k, 0)
	timeouts, sum := 0, 0
	k.Spawn("consumer", func(p *Proc) {
		for {
			if v, ok := q.Get(p, time.Millisecond); ok {
				sum += v
			} else {
				timeouts++
			}
		}
	})
	round := func() { k.RunUntil(k.Now() + time.Millisecond) } // one expiry
	round()
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("a timed-out Get allocates %v objects, want 0", n)
	}
	if timeouts != 203 {
		t.Fatalf("%d timeouts, want 203", timeouts)
	}
	if len(q.free)+q.waiters.Len() != 1 {
		t.Fatalf("%d waiter records for one consumer (free %d, waiting %d): timed-out waiters are not recycled",
			len(q.free)+q.waiters.Len(), len(q.free), q.waiters.Len())
	}
	// The recycled record carries nothing over: the next Get on it still
	// receives an item, and the one after still times out empty-handed.
	q.Put(7)
	k.RunUntil(k.Now() + time.Microsecond)
	if sum != 7 {
		t.Fatalf("after 203 timeouts the consumer received %d, want 7", sum)
	}
	round()
	if timeouts != 204 || sum != 7 {
		t.Fatalf("after the item: %d timeouts, sum %d; want 204 and 7", timeouts, sum)
	}
}

// TestQueueTimeoutLeavesTheMiddle: the waiter that expires is not the
// longest-waiting one, so it leaves the ring from the middle and the other
// two keep their first-come-first-served order.
func TestQueueTimeoutLeavesTheMiddle(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k, 0)
	type result struct {
		v  int
		ok bool
		at time.Duration
	}
	res := make([]result, 3)
	for i, timeout := range []time.Duration{-1, 5 * time.Millisecond, time.Second} {
		i, timeout := i, timeout
		k.Spawn("", func(p *Proc) {
			v, ok := q.Get(p, timeout)
			res[i] = result{v, ok, p.Now()}
		})
	}
	k.After(10*time.Millisecond, func() {
		q.Put(100)
		q.Put(200)
		q.Put(300) // nobody left to take it
	})
	k.Run()
	want := []result{
		{100, true, 10 * time.Millisecond},
		{0, false, 5 * time.Millisecond},
		{200, true, 10 * time.Millisecond},
	}
	for i := range want {
		if res[i] != want[i] {
			t.Errorf("waiter %d: %+v, want %+v", i, res[i], want[i])
		}
	}
	if q.Len() != 1 {
		t.Errorf("%d items buffered, want the third Put's 1", q.Len())
	}
}
