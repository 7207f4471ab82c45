package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestAfterOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.After(30*time.Millisecond, func() { got = append(got, 3) })
	k.After(10*time.Millisecond, func() { got = append(got, 1) })
	k.After(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("Now() = %v, want 30ms", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events not FIFO: %v", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.After(time.Duration(i)*time.Second, func() { count++ })
	}
	n := k.RunUntil(5 * time.Second)
	if n != 5 || count != 5 {
		t.Fatalf("RunUntil processed %d (count %d), want 5", n, count)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", k.Now())
	}
	k.Run()
	if count != 10 {
		t.Fatalf("after Run count = %d, want 10", count)
	}
}

func TestEvery(t *testing.T) {
	k := NewKernel()
	var ticks []time.Duration
	tm := k.Every(100*time.Millisecond, func() { ticks = append(ticks, k.Now()) })
	k.After(350*time.Millisecond, func() { tm.Stop() })
	k.Run()
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestEverySelfStop(t *testing.T) {
	// Regression: stopping an Every timer from inside its own tick used to
	// return false (the firing event was marked fired) and the timer kept
	// rescheduling forever.
	k := NewKernel()
	ticks := 0
	var tm Timer
	tm = k.Every(time.Second, func() {
		ticks++
		if ticks == 3 {
			if !tm.Stop() {
				t.Error("Stop() = false from inside tick")
			}
		}
	})
	k.Run()
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3 (timer kept firing after self-stop)", ticks)
	}
	if k.events.len() != 0 {
		t.Fatalf("%d pending events after self-stop, want 0", k.events.len())
	}
	if tm.Stop() {
		t.Fatal("Stop() = true on already-stopped Every timer")
	}
}

func TestEveryStopBetweenTicks(t *testing.T) {
	k := NewKernel()
	ticks := 0
	tm := k.Every(100*time.Millisecond, func() { ticks++ })
	k.RunUntil(250 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending Every timer")
	}
	k.Run()
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ticks)
	}
}

func TestOneShotSelfStopReportsFalse(t *testing.T) {
	k := NewKernel()
	var tm Timer
	stopped := true
	tm = k.After(time.Second, func() { stopped = tm.Stop() })
	k.Run()
	if stopped {
		t.Fatal("Stop() from inside the firing callback reported true")
	}
}

func TestTimerStaleHandleAfterReuse(t *testing.T) {
	// A Timer held across its event's firing must not cancel the recycled
	// event that a later At call reuses.
	k := NewKernel()
	first := k.After(time.Second, func() {})
	k.Run()
	secondFired := false
	k.After(time.Second, func() { secondFired = true })
	if first.Stop() {
		t.Fatal("stale Stop() = true")
	}
	if first.Pending() {
		t.Fatal("stale Pending() = true")
	}
	k.Run()
	if !secondFired {
		t.Fatal("stale Stop cancelled a recycled event")
	}
}

func TestTimerPending(t *testing.T) {
	k := NewKernel()
	var zero Timer
	if zero.Pending() {
		t.Fatal("zero Timer pending")
	}
	tm := k.After(time.Second, func() {})
	if !tm.Pending() {
		t.Fatal("scheduled timer not pending")
	}
	tm.Stop()
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
	ev := k.Every(time.Second, func() {})
	k.RunUntil(2500 * time.Millisecond)
	if !ev.Pending() {
		t.Fatal("live Every timer not pending between ticks")
	}
	ev.Stop()
	if ev.Pending() {
		t.Fatal("stopped Every timer still pending")
	}
}

func TestStopRemovesFromHeapImmediately(t *testing.T) {
	// Cancelled events leave the heap at Stop time, so Steps drops at once
	// and the dispatch loop never sees tombstones.
	k := NewKernel()
	timers := make([]Timer, 100)
	for i := range timers {
		timers[i] = k.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	for _, tm := range timers[:50] {
		if !tm.Stop() {
			t.Fatal("Stop() = false on pending timer")
		}
	}
	if k.events.len() != 50 {
		t.Fatalf("%d pending events after stopping half, want 50", k.events.len())
	}
	if n := k.Run(); n != 50 {
		t.Fatalf("Run() processed %d, want 50", n)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wake time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	k.Run()
	if wake != 42*time.Millisecond {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * time.Millisecond)
		trace = append(trace, "b1")
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "b3")
	})
	k.Run()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel()
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
		})
		p.Sleep(5 * time.Millisecond)
	})
	k.Run()
	if !childRan {
		t.Fatal("child proc did not run")
	}
}

func TestQueuePutThenGet(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	var got int
	var ok bool
	k.Spawn("consumer", func(p *Proc) {
		got, ok = q.Get(p, -1)
	})
	k.After(time.Millisecond, func() { q.Put(7) })
	k.Run()
	if !ok || got != 7 {
		t.Fatalf("Get = (%d, %v), want (7, true)", got, ok)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	var ok bool
	var at time.Duration
	k.Spawn("consumer", func(p *Proc) {
		_, ok = q.Get(p, 10*time.Millisecond)
		at = p.Now()
	})
	k.Run()
	if ok {
		t.Fatal("Get succeeded with nothing produced")
	}
	if at != 10*time.Millisecond {
		t.Fatalf("timed out at %v, want 10ms", at)
	}
}

func TestQueueItemBeatsTimeout(t *testing.T) {
	k := NewKernel()
	q := NewQueue[string](k, 0)
	var got string
	var ok bool
	k.Spawn("consumer", func(p *Proc) {
		got, ok = q.Get(p, 10*time.Millisecond)
	})
	k.After(5*time.Millisecond, func() { q.Put("hello") })
	k.Run()
	if !ok || got != "hello" {
		t.Fatalf("Get = (%q, %v), want (hello, true)", got, ok)
	}
}

func TestQueueBoundedDrops(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 2)
	if !q.Put(1) || !q.Put(2) {
		t.Fatal("puts within capacity failed")
	}
	if q.Put(3) {
		t.Fatal("put beyond capacity succeeded")
	}
	if q.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", q.dropped)
	}
	if q.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", q.Len())
	}
}

func TestQueueFIFOAcrossWaiters(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("c", func(p *Proc) {
			v, ok := q.Get(p, -1)
			if ok {
				order = append(order, v*10+i)
			}
		})
	}
	k.After(time.Millisecond, func() {
		q.Put(0)
		q.Put(1)
		q.Put(2)
	})
	k.Run()
	// Waiter i receives item i: first-come first-served.
	want := []int{0, 11, 22}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order = %v, want %v", order, want)
		}
	}
}

func TestQueueDrain(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	q.Put(1)
	q.Put(2)
	items := q.Drain()
	if len(items) != 2 || items[0] != 1 || items[1] != 2 {
		t.Fatalf("Drain = %v", items)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty after Drain")
	}
}

// TestCloseReleasesParkedProcs: Close unwinds a proc parked mid-function
// from where it blocked; its deferred cleanup runs, once, and Close a second
// time finds nothing left to do.
func TestCloseReleasesParkedProcs(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	cleanups, returned := 0, false
	k.Spawn("stuck", func(p *Proc) {
		defer func() { cleanups++ }()
		q.Get(p, -1) // never satisfied
		returned = true
	})
	k.Run()
	if cleanups != 0 {
		t.Fatal("deferred cleanup ran while the proc was still parked")
	}
	k.Close()
	k.Close()
	if cleanups != 1 || returned {
		t.Fatalf("after Close: cleanup ran %d times (want 1), Get returned = %v (want an unwind, not a return)", cleanups, returned)
	}
	if k.firstLive != nil || k.lastLive != nil {
		t.Fatal("procs remaining on the live list after Close")
	}
}

// TestCloseUnwindsInSpawnOrder: Close ends a kernel's procs — parked ones by
// unwinding, ones whose start event has not fired by never running them — in
// the order they were spawned, whatever order they last ran or exited in.
func TestCloseUnwindsInSpawnOrder(t *testing.T) {
	k := NewKernel()
	var unwound []int
	for i := 0; i < 8; i++ {
		i := i
		k.Spawn("", func(p *Proc) {
			if i%3 == 0 {
				return // exits during the run: leaves the middle of the list
			}
			defer func() { unwound = append(unwound, i) }()
			p.Sleep(time.Duration(8-i) * time.Second) // last spawned wakes first
			p.Sleep(time.Hour)
		})
	}
	k.RunUntil(10 * time.Second)
	ran := false
	k.Spawn("unstarted", func(p *Proc) { ran = true })
	k.Close()
	if want := []int{1, 2, 4, 5, 7}; !reflect.DeepEqual(unwound, want) {
		t.Fatalf("unwind order %v, want spawn order %v", unwound, want)
	}
	if ran {
		t.Fatal("a proc whose start event never fired ran its function on Close")
	}
	if k.firstLive != nil {
		t.Fatal("procs remaining on the live list after Close")
	}
}

// TestCloseLeavesNoGoroutines: every proc's coroutine is backed by a
// goroutine of the runtime's; Close must leave none behind, whether the proc
// had finished, was parked, or had never started.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	q := NewQueue[int](k, 0)
	for i := 0; i < 10; i++ {
		k.Spawn("finished", func(p *Proc) { p.Sleep(time.Millisecond) })
		k.Spawn("sleeping", func(p *Proc) { p.Sleep(time.Hour) })
		k.Spawn("waiting", func(p *Proc) { q.Get(p, -1) })
	}
	k.RunUntil(time.Second)
	for i := 0; i < 10; i++ {
		k.Spawn("unstarted", func(p *Proc) { t.Error("unstarted proc ran") })
	}
	if n := runtime.NumGoroutine(); n < base+30 {
		t.Fatalf("%d goroutines with 30 live procs over a baseline of %d: the test no longer measures what Close must release", n, base)
	}
	k.Close()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after Close, %d before NewKernel", n, base)
	}
}

// TestProcPanicSurfacesFromRun: a panic in a proc comes out of the Run that
// resumed it, on the caller's goroutine, where it can be recovered, as an
// error that names the proc and shows the value panicked with and the proc's
// stack; the proc is finished, the kernel idle, and both Run and Close still
// work.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel()
	cleanups := 0
	k.Spawn("bystander", func(p *Proc) {
		defer func() { cleanups++ }()
		p.Sleep(time.Hour)
	})
	bad := k.Spawn("bad", func(p *Proc) {
		defer func() { cleanups++ }()
		p.Sleep(time.Second)
		panic("boom")
	})
	ticks := 0
	k.Every(time.Second, func() { ticks++ })
	func() {
		defer func() {
			err, _ := recover().(error)
			if err == nil {
				t.Fatal("RunUntil did not surface the proc's panic as an error")
			}
			for _, want := range []string{`proc "bad"`, "boom", "TestProcPanicSurfacesFromRun.func"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("panic message lacks %q:\n%v", want, err)
				}
			}
		}()
		k.RunUntil(time.Minute)
		t.Fatal("RunUntil returned past a panicking proc")
	}()
	if !bad.done || cleanups != 1 {
		t.Fatalf("panicked proc: done = %v, %d cleanups ran (want true, 1)", bad.done, cleanups)
	}
	if k.firstLive == bad || k.lastLive == bad || k.firstLive != k.lastLive {
		t.Fatal("panicked proc still on the live list")
	}
	if k.running {
		t.Fatal("kernel still marked running after the panic unwound Run")
	}
	// The kernel carries on from the instant of the panic.
	if k.Now() != time.Second {
		t.Fatalf("clock at %v after the panic, want 1s", k.Now())
	}
	k.RunUntil(10 * time.Second)
	if ticks < 9 {
		t.Fatalf("%d ticks by 10s: the kernel did not keep running after the panic", ticks)
	}
	k.Close()
	if cleanups != 2 || k.firstLive != nil {
		t.Fatalf("after Close: %d cleanups (want 2), live list empty = %v", cleanups, k.firstLive == nil)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		k := NewKernel()
		defer k.Close()
		rng := k.Rand(seed)
		q := NewQueue[int](k, 0)
		var arrivals []time.Duration
		k.Spawn("producer", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
				q.Put(i)
			}
		})
		k.Spawn("consumer", func(p *Proc) {
			for i := 0; i < 50; i++ {
				if _, ok := q.Get(p, -1); ok {
					arrivals = append(arrivals, p.Now())
				}
			}
		})
		k.Run()
		return arrivals
	}
	a, b := run(42), run(42)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("runs produced %d and %d arrivals, want 50", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPropertyEventOrdering(t *testing.T) {
	// Property: for any set of delays, events fire in nondecreasing time
	// order, and equal times preserve insertion order.
	f := func(delays []uint16) bool {
		k := NewKernel()
		type fireRec struct {
			at  time.Duration
			seq int
		}
		var fired []fireRec
		for i, d := range delays {
			i, at := i, time.Duration(d)*time.Microsecond
			k.After(at, func() { fired = append(fired, fireRec{k.Now(), i}) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQueueFIFO(t *testing.T) {
	// Property: items come out of the queue in the order they went in.
	f := func(items []int8) bool {
		k := NewKernel()
		defer k.Close()
		q := NewQueue[int8](k, 0)
		var got []int8
		k.Spawn("consumer", func(p *Proc) {
			for range items {
				v, ok := q.Get(p, -1)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		k.Spawn("producer", func(p *Proc) {
			for _, it := range items {
				p.Sleep(time.Microsecond)
				q.Put(it)
			}
		})
		k.Run()
		if len(got) != len(items) {
			return false
		}
		for i := range items {
			if got[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStepsExcludesCancelled(t *testing.T) {
	k := NewKernel()
	k.After(time.Second, func() {})
	tm := k.After(2*time.Second, func() {})
	tm.Stop()
	if k.events.len() != 1 {
		t.Fatalf("%d pending events, want 1", k.events.len())
	}
}

func TestYieldRunsPendingEvents(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Spawn("a", func(p *Proc) {
		trace = append(trace, "a-before")
		p.Yield()
		trace = append(trace, "a-after")
	})
	k.Spawn("b", func(p *Proc) {
		trace = append(trace, "b")
	})
	k.Run()
	if trace[0] != "a-before" || trace[1] != "b" || trace[2] != "a-after" {
		t.Fatalf("trace = %v", trace)
	}
}
