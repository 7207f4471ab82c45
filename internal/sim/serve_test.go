package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// A served queue (Queue.Serve) must be indistinguishable from the proc loop
// it replaces: the same events at the same instants in the same order, so
// the same handle trace, event count, backlog and drops. The oracle here runs
// one generated schedule into each on twin kernels and compares them.

// serveSchedule is one generated run. Its config byte picks the cap (0, 1 or
// 4), the service time (zero, constant, or two item-dependent shapes), whether
// the handler Puts into its own queue, and whether the first driver step is
// scheduled before the consumer's start event. pre items are Put before the
// consumer exists. Each op byte is an op kind in its low two bits and an
// argument above them:
//
//	0  advance the driver's clock by 1 + arg%5 ticks
//	1  Put 1 + arg%3 items at the current instant
//	2  set more to arg%2 == 1
//	3  Put one item, then one more in an event at the same instant
type serveSchedule struct {
	config, pre byte
	ops         []byte
}

const serveTick = time.Millisecond

// serveStep is one line of a twin's trace: a handled item, or the state a
// driver step leaves.
type serveStep struct {
	at            time.Duration
	handled       int // the item handled; 0 on a driver step
	len           int
	accepted, out int // Puts accepted and items handled so far
	dropped       int // Puts refused at the full queue so far
}

func (s serveSchedule) service(x int) time.Duration {
	switch s.config / 3 % 4 {
	case 1:
		return 2 * serveTick
	case 2:
		return time.Duration(x%3) * serveTick
	case 3:
		return time.Duration(1+x%2) * serveTick
	}
	return 0
}

// run plays the schedule on a fresh kernel, with the queue served or drained
// by the proc loop Serve documents, and returns the trace and the number of
// events Run fired.
func (s serveSchedule) run(t testing.TB, served bool) ([]serveStep, int) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k, []int{0, 1, 4}[s.config%3])
	selfPut := s.config/12%2 == 1
	more := true
	var trace []serveStep
	accepted, out, dropped, next := 0, 0, 0, 0
	put := func(x int) {
		if q.Put(x) {
			accepted++
		} else {
			dropped++
		}
	}
	newItem := func() int { next++; return next }
	record := func(handled int) {
		trace = append(trace, serveStep{k.Now(), handled, q.Len(), accepted, out, dropped})
		if served && accepted != out+q.Len()+q.InService() {
			t.Fatalf("at %v: accepted %d, but handled %d + queued %d + in service %d", k.Now(), accepted, out, q.Len(), q.InService())
		}
	}
	handle := func(x int) {
		out++
		if selfPut && x < 1000 && x%3 == 0 {
			put(x + 1000)
		}
		record(x)
	}
	for range s.pre % 4 {
		put(newItem())
	}
	var step func(i int) func()
	step = func(i int) func() {
		return func() {
			for ; i < len(s.ops); i++ {
				op, arg := s.ops[i]&3, int(s.ops[i]>>2)
				switch op {
				case 0:
					record(0)
					k.At(k.Now()+time.Duration(1+arg%5)*serveTick, step(i+1))
					return
				case 1:
					for range 1 + arg%3 {
						put(newItem())
					}
				case 2:
					more = arg%2 == 1
				case 3:
					put(newItem())
					x := newItem()
					k.At(k.Now(), func() { put(x); record(0) })
				}
			}
			record(0)
		}
	}
	early := s.config/24%2 == 1
	if early {
		k.At(0, step(0))
	}
	if served {
		q.Serve(func() bool { return more }, s.service, handle)
	} else {
		k.Spawn("consumer", func(p *Proc) {
			for more {
				x, _ := q.Get(p, -1)
				if d := s.service(x); d > 0 {
					p.Sleep(d)
				}
				handle(x)
			}
		})
	}
	if !early {
		k.At(0, step(0))
	}
	n := k.Run()
	record(0)
	return trace, n
}

func checkServeMatchesProc(t *testing.T, s serveSchedule) {
	t.Helper()
	want, wantN := s.run(t, false)
	got, gotN := s.run(t, true)
	if gotN != wantN {
		t.Errorf("served queue ran %d events, the proc loop %d", gotN, wantN)
	}
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("trace line %d: served %+v, proc loop %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("served trace has %d lines, the proc loop's %d", len(got), len(want))
	}
}

// serveSeeds cover each shape the oracle is for: several Puts at one instant
// and Puts before the start event, caps 0, 1 and 4, service times zero,
// constant and item-dependent, a handler that Puts into its own queue, and
// more turning false mid-service and while idle.
var serveSeeds = []struct {
	name string
	s    serveSchedule
}{
	{"burst at one instant, cap 0, constant service", serveSchedule{3, 0, []byte{1 | 2<<2, 1 | 1<<2, 0, 1, 0 | 4<<2}}},
	{"puts before start, cap 1, zero service", serveSchedule{1, 3, []byte{1 | 2<<2, 0, 1}}},
	{"early driver, cap 4, item-dependent service", serveSchedule{24 + 6 + 2, 2, []byte{1 | 2<<2, 1 | 2<<2, 0 | 2<<2, 3, 0, 1 | 1<<2}}},
	{"self-put, cap 4, zero service", serveSchedule{12 + 2, 1, []byte{1 | 2<<2, 0, 1 | 2<<2, 0, 3}}},
	{"self-put, cap 1, item-dependent service", serveSchedule{12 + 9 + 1, 0, []byte{1 | 2<<2, 0, 1, 0 | 1<<2, 1 | 2<<2}}},
	{"more false mid-service", serveSchedule{3, 0, []byte{1 | 1<<2, 0, 2, 1, 0, 1}}},
	{"more false while idle", serveSchedule{3, 0, []byte{1, 0 | 4<<2, 2, 0, 1 | 1<<2, 0, 1}}},
	{"more false before start", serveSchedule{24 + 3, 2, []byte{2, 1, 0, 2 | 1<<2, 1}}},
	{"more back on before it is asked", serveSchedule{9, 0, []byte{1 | 2<<2, 2, 2 | 1<<2, 0, 1}}},
	{"same-instant put after a hand-off", serveSchedule{3 + 1, 0, []byte{3, 3, 0, 3 | 1<<2, 1}}},
}

func TestServeMatchesProc(t *testing.T) {
	for _, c := range serveSeeds {
		t.Run(c.name, func(t *testing.T) { checkServeMatchesProc(t, c.s) })
	}
}

func FuzzServeMatchesProc(f *testing.F) {
	for _, c := range serveSeeds {
		f.Add(c.s.config, c.s.pre, c.s.ops)
	}
	f.Fuzz(func(t *testing.T, config, pre byte, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		checkServeMatchesProc(t, serveSchedule{config, pre, ops})
	})
}

// TestServePanicSurfaces: a panic in handle comes out of RunUntil as the raw
// value, the kernel still closes, and the stopped server leaves later Puts
// buffered, as a dead consumer proc would.
func TestServePanicSurfaces(t *testing.T) {
	k := NewKernel()
	closed := false
	k.OnClose(func() { closed = true })
	q := NewQueue[int](k, 0)
	boom := errors.New("boom")
	handled := 0
	q.Serve(nil, func(int) time.Duration { return serveTick }, func(x int) {
		handled++
		if x == 2 {
			panic(boom)
		}
	})
	q.Put(1)
	q.Put(2)
	q.Put(3)
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("RunUntil panicked with %v, want the handler's own value", r)
			}
		}()
		k.RunUntil(time.Second)
		t.Fatal("RunUntil returned past a panicking handler")
	}()
	if handled != 2 || q.InService() != 0 || q.Len() != 1 {
		t.Fatalf("after the panic: handled %d, in service %d, queued %d; want 2, 0, 1", handled, q.InService(), q.Len())
	}
	q.Put(4)
	k.RunUntil(2 * time.Second)
	if handled != 2 || q.Len() != 2 {
		t.Fatalf("a stopped server handled on: handled %d, queued %d; want 2, 2", handled, q.Len())
	}
	k.Close()
	if !closed {
		t.Fatal("the kernel did not close after a served panic")
	}
}

// TestServeMisusePanics: a served queue has exactly one consumer.
func TestServeMisusePanics(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Fatalf("%s: panicked with %v, want %q", name, r, want)
			}
		}()
		fn()
	}
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k, 0)
	nop := func(int) {}
	q.Serve(nil, func(int) time.Duration { return 0 }, nop)
	mustPanic("second Serve", "Serve on a served queue", func() {
		q.Serve(nil, func(int) time.Duration { return 0 }, nop)
	})
	var got any
	k.Spawn("getter", func(p *Proc) {
		defer func() { got = recover() }()
		q.Get(p, 0)
	})
	k.Run()
	if !strings.Contains(fmt.Sprint(got), "Get on a served queue") {
		t.Fatalf("Get on a served queue: recovered %v", got)
	}
	blocked := NewQueue[int](k, 0)
	k.Spawn("waiter", func(p *Proc) { blocked.Get(p, -1) })
	k.Run()
	mustPanic("Serve past a blocked Get", "blocked Get", func() { blocked.Serve(nil, func(int) time.Duration { return 0 }, nop) })
}
