// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// A Kernel owns a virtual clock and an event queue. Simulated activities are
// written as ordinary sequential Go code running in a Proc: a coroutine that
// the kernel schedules cooperatively, one at a time, so that all simulated
// state is accessed without data races and every run with the same seed is
// bit-for-bit reproducible.
//
// Procs block on Proc.Sleep and on Queue operations. Resuming a Proc is a
// direct switch from the kernel's dispatch loop into the Proc's stack on the
// same thread, and blocking is the switch back — no channel, no scheduler
// wake-up — so at most one Proc executes at any instant and a process switch
// costs about what two events do. Time advances only between events. A
// queue whose one consumer only takes an item, waits its service time and
// handles it is served in events instead (Queue.Serve), with no proc behind it.
//
// The scheduler is allocation-free in steady state: fired and cancelled
// events return to a free list and are recycled by later At/After/Every
// calls, and the pending set is an indexed 4-ary heap so cancellation
// removes the event immediately instead of leaving a tombstone. A caller on
// a hot path keeps its own side allocation-free too by scheduling a
// function bound once with a per-event argument (AtArg/AfterArg) instead of
// a fresh closure per event.
package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"
)

// Kernel is a discrete-event scheduler with a virtual clock.
// Create one with NewKernel; it is not safe for concurrent use from
// multiple OS threads outside of its own Proc mechanism.
type Kernel struct {
	now     time.Duration
	seq     uint64
	events  eventQueue
	free    []*event // recycled events awaiting reuse
	running bool
	closed  bool
	nprocs  int // procs spawned over the kernel lifetime (for naming)

	// firstLive..lastLive is the list of procs that have not finished, in
	// spawn order: the order Close unwinds them in.
	firstLive, lastLive *Proc
	procSwitches        uint64

	// group/shard are set when the kernel is one wheel of a ShardGroup;
	// Run/RunUntil/Close then drive the whole group so that member kernels
	// stay synchronized under the conservative-lookahead protocol.
	group *ShardGroup
	shard int

	onClose []func() // run by closeLocal once the procs have unwound
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time as an offset from the start of the
// simulation.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns a deterministic random source derived from the given seed.
// Distinct subsystems should use distinct seeds so that adding draws in one
// does not perturb another.
func (k *Kernel) Rand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Timer is a handle to a scheduled event that may be cancelled. The zero
// Timer is valid and refers to no event. Timers are values; copying one
// copies the handle, not the event.
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the timer. For a periodic (Every) timer it may be called
// from inside the tick callback to stop further ticks. It reports whether
// the call prevented a (further) firing; stopping an already-fired one-shot
// timer or an already-stopped timer reports false.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return false
	}
	if ev.index >= 0 {
		ev.k.events.remove(ev.index)
		ev.k.release(ev)
		return true
	}
	// index < 0 with a matching generation means the event is mid-fire.
	// One-shot events are recycled (generation bumped) before their
	// callback runs, so this is a periodic event ticking right now:
	// clearing the period stops the reschedule.
	if ev.period > 0 {
		ev.period = 0
		return true
	}
	return false
}

// Pending reports whether the timer is still scheduled to fire: queued in
// the event heap, or a periodic timer currently ticking that will
// reschedule itself.
func (t Timer) Pending() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return false
	}
	return ev.index >= 0 || ev.period > 0
}

// At schedules fn to run at absolute virtual time at. Times in the past run
// at the current time (events never fire retroactively).
func (k *Kernel) At(at time.Duration, fn func()) Timer {
	return k.schedule(at, 0, callFunc, fn)
}

// After schedules fn to run d from now.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	return k.schedule(k.now+d, 0, callFunc, fn)
}

// AtArg schedules fn(arg) to run at absolute virtual time at, ordered with
// At's events by the same (time, sequence) rule. The argument travels in the
// pooled event, so a caller that binds fn once and passes a pointer as arg
// schedules without allocating — where At would cost a closure per event to
// carry the same pointer.
func (k *Kernel) AtArg(at time.Duration, fn func(any), arg any) Timer {
	return k.schedule(at, 0, fn, arg)
}

// AfterArg schedules fn(arg) to run d from now; see AtArg.
func (k *Kernel) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	return k.schedule(k.now+d, 0, fn, arg)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned Timer is stopped (from outside or from within fn
// itself). fn observes the tick time via Now. The tick event is reused
// across firings, so a steady Every costs no allocation per tick.
func (k *Kernel) Every(period time.Duration, fn func()) Timer {
	if period <= 0 {
		panic("sim: Every period must be positive")
	}
	return k.schedule(k.now+period, period, callFunc, fn)
}

// callFunc is the event function of At, After and Every: their func() rides
// in the event's argument slot (a func value in an interface is a pointer,
// not an allocation), so the heap and the dispatch loop know one event shape.
func callFunc(fn any) { fn.(func())() }

// schedule inserts a pooled event into the heap and returns its handle.
func (k *Kernel) schedule(at, period time.Duration, fn func(any), arg any) Timer {
	if at < k.now {
		at = k.now
	}
	ev := k.alloc() // allocates only to refill an empty free list: zero in steady state
	k.seq++
	ev.at = at
	ev.seq = k.seq
	ev.fn = fn
	ev.arg = arg
	ev.period = period
	k.events.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// alloc takes an event from the free list, or makes one when the list is
// empty.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free = k.free[:n-1]
		return ev
	}
	return &event{k: k, index: -1}
}

// release recycles an event: bumping the generation invalidates every Timer
// handle that still points at it.
func (k *Kernel) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	ev.period = 0
	ev.index = -1
	k.free = append(k.free, ev)
}

// Spawn creates a new simulated process that begins executing fn at the
// current virtual time. The name labels the Proc in a debugger and in the
// message of a panic that escapes fn; nothing else reads it.
//
// A panic in fn ends the proc and surfaces from the Run or RunUntil call that
// resumed it, on that caller's goroutine (for a multi-shard ShardGroup, the
// shard's worker goroutine), where it can be recovered; the kernel is left
// idle and can still be run and closed. The value that surfaces is an error
// whose message names the proc and carries fn's panic value and the proc's
// stack, which the switch back to the caller would otherwise lose.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	if k.closed {
		panic("sim: Spawn on closed kernel")
	}
	k.nprocs++
	if name == "" {
		name = fmt.Sprintf("proc-%d", k.nprocs)
	}
	p := &Proc{k: k, name: name}
	p.next, p.stop = newCoroutine(func(yield func(struct{}) bool) {
		p.yield = yield
		defer k.retire(p)
		defer func() {
			if r := recover(); r != nil && r != errKilled {
				// The coroutine's stack is gone by the time Run's caller
				// sees the panic, so it travels in the value.
				panic(fmt.Errorf("sim: proc %q panicked: %v\n\n%s", p.name, r, debug.Stack()))
			}
		}()
		fn(p)
	})
	p.prevLive = k.lastLive
	if k.lastLive != nil {
		k.lastLive.nextLive = p
	} else {
		k.firstLive = p
	}
	k.lastLive = p
	k.AtArg(k.now, wakeProc, p)
	return p
}

// retire marks p finished and takes it off the live list. A proc retires
// itself as its function returns or panics; closeLocal retires the rest.
func (k *Kernel) retire(p *Proc) {
	if p.done {
		return
	}
	p.done = true
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		k.firstLive = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	} else {
		k.lastLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// wakeProc is the event function that resumes a proc: Spawn, Sleep and queue
// wake-ups schedule it with the *Proc as argument, so none of them allocates.
func wakeProc(arg any) {
	p := arg.(*Proc)
	p.k.resumeProc(p)
}

// resumeProc switches to p and returns when p parks again or finishes.
// It must only be called from event context (inside Run).
func (k *Kernel) resumeProc(p *Proc) {
	if p.done {
		return
	}
	k.procSwitches++
	p.next()
}

// ProcSwitches reports how many times the kernel has switched into a proc:
// one per wake-up that found its proc alive, each paired with the switch
// back when the proc parks or ends.
func (k *Kernel) ProcSwitches() uint64 { return k.procSwitches }

// maxTime is the largest representable virtual time: the bound that makes
// runBefore drain the queue.
const maxTime = time.Duration(1<<63 - 1)

// Run executes events until the queue is empty. It returns the number of
// events processed. Procs blocked without timeouts when the queue drains
// simply remain parked; call Close to unwind them.
//
// For a kernel that is a member of a ShardGroup, Run drives the whole group
// (all shards advance together under the lookahead protocol) and returns
// the events processed across the group.
func (k *Kernel) Run() int {
	if k.group != nil {
		return k.group.Run()
	}
	return k.runBefore(maxTime)
}

// RunUntil executes events with timestamps at or before deadline, then sets
// the clock to deadline. It returns the number of events processed. Like
// Run, a grouped kernel delegates to its ShardGroup.
func (k *Kernel) RunUntil(deadline time.Duration) int {
	if k.group != nil {
		return k.group.RunUntil(deadline)
	}
	n := k.runBefore(deadline + 1)
	if k.now < deadline {
		k.now = deadline
	}
	return n
}

// runBefore is the dispatch loop: pop, advance the clock, fire, recycle, for
// every event with a timestamp strictly below bound. It leaves the clock at
// the last processed event; callers with an inclusive deadline pass
// deadline+1 and advance the clock themselves.
func (k *Kernel) runBefore(bound time.Duration) int {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	n := 0
	for k.events.len() > 0 {
		ev := k.events.a[0]
		if ev.at >= bound {
			break
		}
		k.events.pop()
		k.now = ev.at
		if ev.period > 0 {
			// Periodic: keep the event alive across the callback so a
			// mid-tick Stop can clear the period, then reschedule.
			ev.fn(ev.arg)
			if ev.period > 0 {
				ev.at += ev.period
				k.seq++
				ev.seq = k.seq
				k.events.push(ev)
			} else {
				k.release(ev)
			}
		} else {
			// One-shot: recycle before the callback so that the event is
			// immediately reusable and stale Timer handles go dead.
			fn, arg := ev.fn, ev.arg
			k.release(ev)
			fn(arg)
		}
		n++
	}
	return n
}

// Group returns the ShardGroup this kernel belongs to, or nil for an
// ungrouped kernel.
func (k *Kernel) Group() *ShardGroup { return k.group }

// ShardIndex returns this kernel's shard number within its group; it is 0
// for an ungrouped kernel.
func (k *Kernel) ShardIndex() int { return k.shard }

// peekNext returns the timestamp of the earliest pending event.
func (k *Kernel) peekNext() (time.Duration, bool) {
	if k.events.len() == 0 {
		return 0, false
	}
	return k.events.a[0].at, true
}

// Close ends every live proc, in spawn order: one parked mid-function
// unwinds from where it blocked, running its deferred calls; one that never
// started never runs. Afterwards no coroutine of the kernel is left. The
// kernel must not be used afterwards. It is safe to call more than once.
// Closing a grouped kernel closes the whole ShardGroup: member kernels
// only ever live and die together.
func (k *Kernel) Close() {
	if k.group != nil {
		k.group.Close()
		return
	}
	k.closeLocal()
}

// OnClose registers fn to run when the kernel closes, after its procs have
// unwound, in registration order: the end-of-run check of a layer built on
// the kernel (netsim balances its packet ledger there). For a grouped
// kernel it runs as the group closes this shard.
func (k *Kernel) OnClose(fn func()) { k.onClose = append(k.onClose, fn) }

// closeLocal tears down this kernel only; ShardGroup.Close fans out to it.
func (k *Kernel) closeLocal() {
	if k.closed {
		return
	}
	k.closed = true
	for p := k.firstLive; p != nil; p = k.firstLive {
		k.retire(p)
		p.stop()
	}
	for _, fn := range k.onClose {
		fn()
	}
}

// event is a pooled heap node. A fired or cancelled event returns to the
// kernel's free list; gen distinguishes the current incarnation from stale
// Timer handles created for earlier ones.
type event struct {
	k      *Kernel
	at     time.Duration
	seq    uint64
	fn     func(any)
	arg    any
	index  int           // position in the heap, -1 when not queued
	gen    uint64        // incremented each time the event is recycled
	period time.Duration // >0 marks a periodic (Every) event
}
