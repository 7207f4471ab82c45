package sim

import (
	"testing"
	"time"
	"unsafe"
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

// TestServeAllocatesNothing: a served queue's warm cycle — a Put handing an
// item to the idle server, its wake event, its done event and the return to
// idle — allocates nothing, and costs no proc switch; Serve itself allocates
// the server, once.
func TestServeAllocatesNothing(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	handled := 0
	service := func(int) time.Duration { return time.Millisecond }
	handle := func(int) { handled++ }
	// Serve arms a start event: warm the event pool and the heap first, so
	// that only the server is counted.
	const runs = 200
	for range runs + 1 {
		k.AfterArg(0, func(any) {}, nil)
	}
	k.Run()
	qs := make([]*Queue[int], runs+1)
	for i := range qs {
		qs[i] = NewQueue[int](k, 4)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { qs[next].Serve(nil, service, handle); next++ }); n != 1 {
		t.Fatalf("Serve allocates %v objects, want 1", n)
	}
	k.Run()
	q := qs[0]
	round := func() {
		q.Put(1)
		k.Run()
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("a put -> wake -> done -> idle cycle allocates %v objects, want 0", n)
	}
	if handled != 1+201 || k.ProcSwitches() != 0 || q.InService() != 0 {
		t.Fatalf("handled %d, %d proc switches, %d in service; want %d, 0, 0", handled, k.ProcSwitches(), q.InService(), 1+201)
	}
}

// TestQueueFitsIn128Bytes: a queue is at most 128 bytes, a malloc size
// class, so NewQueue's one object and a netsim socket, which embeds its
// receive queue in a 192-byte object, keep their classes; 8 bytes more puts
// every socket in the 208-byte class and shows in bytes_per_sample.
func TestQueueFitsIn128Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Queue[int]{}); size > 128 {
		t.Fatalf("Queue is %d bytes, want at most 128", size)
	}
}

// TestNewQueueAllocatesOneObject: a queue is one object. It binds no
// closure at construction (a timed Get arms the package-level expiry with
// the waiter, which holds its queue), so a queue its owner embeds and
// readies with Init costs nothing beyond the owner.
func TestNewQueueAllocatesOneObject(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var q *Queue[int]
	if n := testing.AllocsPerRun(200, func() { q = NewQueue[int](k, 4) }); n != 1 {
		t.Fatalf("NewQueue allocates %v objects, want 1", n)
	}
	if q.k != k || q.cap != 4 {
		t.Fatalf("NewQueue readied kernel %p, capacity %d; want %p, 4", q.k, q.cap, k)
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
