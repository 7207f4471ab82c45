package sim

import (
	"fmt"
	"time"
)

// ShardGroup couples several kernels — one per shard of a partitioned
// simulation — and runs them in parallel on separate goroutines under a
// conservative synchronization protocol.
//
// The protocol is the synchronous (bounded-lag) variant of conservative
// parallel discrete-event simulation: all cross-shard interactions carry a
// minimum latency, the lookahead L, so events inside a window [T, T+L) on
// different shards cannot affect each other and may execute concurrently.
// The group repeatedly picks T as the earliest pending timestamp across all
// shards, lets every shard with work process its events below T+L on its
// own goroutine, barriers, and exchanges the cross-shard messages staged
// during the window — each of which, by the lookahead rule, is timestamped
// at or after T+L and therefore lands in a strictly later window. The
// window bound plays the role of Chandy–Misra null messages: it is the
// promise "no shard will send you anything before T+L".
//
// Determinism: within a window each shard touches only its own state, and
// staged messages are merged in (timestamp, source shard, source sequence)
// order before delivery, so a run's event order — and every table derived
// from it — is a pure function of (initial state, shard count). A
// single-shard group degenerates to the plain kernel loop and is
// bit-identical to an ungrouped Kernel.
//
// Ownership discipline: each shard's kernel, network, and procs must only
// be touched from that shard's execution context (its events and procs).
// The only sanctioned cross-shard interaction during a run is Send. Wiring
// (topology construction, Spawn, scheduling the first events) happens
// before the first Run from a single goroutine.
type ShardGroup struct {
	shards    []*Kernel
	lookahead time.Duration

	// stage[s] holds the messages shard s sent during the current window;
	// only shard s's goroutine appends, and the coordinator drains it after
	// the barrier, so no lock is needed.
	stage   [][]xmsg
	sendSeq []uint64
	merge   []xmsg // reused scratch for deliverStaged's deterministic sort

	running bool
	windows uint64
	xmsgs   uint64
	closed  bool
}

// xmsg is a timestamped cross-shard event awaiting delivery.
type xmsg struct {
	at   time.Duration
	from int
	to   int
	seq  uint64
	fn   func(any)
	arg  any
}

// NewShardGroup creates n kernels bound into one group. The lookahead is
// the minimum virtual-time distance of every cross-shard interaction;
// Send enforces it. Groups with more than one shard require a positive
// lookahead; a single-shard group accepts any value (it never synchronizes).
func NewShardGroup(n int, lookahead time.Duration) *ShardGroup {
	if n < 1 {
		panic("sim: ShardGroup needs at least one shard")
	}
	if n > 1 && lookahead <= 0 {
		panic("sim: multi-shard group needs positive lookahead")
	}
	g := &ShardGroup{
		lookahead: lookahead,
		shards:    make([]*Kernel, n),
		stage:     make([][]xmsg, n),
		sendSeq:   make([]uint64, n),
	}
	for i := range g.shards {
		k := NewKernel()
		k.group = g
		k.shard = i
		g.shards[i] = k
	}
	return g
}

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns the i-th shard's kernel.
func (g *ShardGroup) Shard(i int) *Kernel { return g.shards[i] }

// Lookahead returns the group's conservative lookahead bound.
func (g *ShardGroup) Lookahead() time.Duration { return g.lookahead }

// Windows reports how many synchronization windows have executed.
func (g *ShardGroup) Windows() uint64 { return g.windows }

// CrossShardMessages reports how many cross-shard events have been staged
// over the group's lifetime.
func (g *ShardGroup) CrossShardMessages() uint64 { return g.xmsgs }

// Send schedules fn to run on shard to at virtual time at. It is the
// cross-shard channel of the group: the only way one shard may cause an
// event on another. When from != to, at must be at least the sending
// shard's current time plus the lookahead — violating that would let a
// message land inside a window a peer has already executed, so it panics.
// A same-shard send is an ordinary local event with no lookahead bound.
//
// Send must be called from the sending shard's execution context (one of
// its events or procs), or before the group has started running.
func (g *ShardGroup) Send(from, to int, at time.Duration, fn func()) {
	g.SendArg(from, to, at, callFunc, fn)
}

// SendArg is Send for a function bound once and a per-message argument, as
// AtArg is to At: staging the message allocates nothing beyond the stage
// slice's own growth.
func (g *ShardGroup) SendArg(from, to int, at time.Duration, fn func(any), arg any) {
	src := g.shards[from]
	if to == from {
		src.AtArg(at, fn, arg)
		return
	}
	if at < src.now+g.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d at %v violates lookahead %v (shard %d is at %v)", from, to, at, g.lookahead, from, src.now))
	}
	g.sendSeq[from]++
	g.stage[from] = append(g.stage[from], xmsg{at: at, from: from, to: to, seq: g.sendSeq[from], fn: fn, arg: arg})
}

// Run executes events until every shard's queue is empty and no cross-shard
// message is in flight. It returns the number of events processed across
// the group.
func (g *ShardGroup) Run() int { return g.runBefore(maxTime) }

// RunUntil executes events with timestamps at or before deadline, then sets
// every shard's clock to deadline. It returns the number of events
// processed across the group.
func (g *ShardGroup) RunUntil(deadline time.Duration) int {
	n := g.runBefore(deadline + 1)
	for _, k := range g.shards {
		if k.now < deadline {
			k.now = deadline
		}
	}
	return n
}

// runBefore executes conservative windows until no shard has an event below
// end.
func (g *ShardGroup) runBefore(end time.Duration) int {
	if g.running {
		panic("sim: Run called reentrantly")
	}
	g.running = true
	defer func() { g.running = false }()
	// A single shard has no peers, so no conservative constraint and nothing
	// ever staged: it runs the plain Kernel loop, and Windows stays 0.
	if len(g.shards) == 1 {
		return g.shards[0].runBefore(end)
	}
	workers := g.startWorkers()
	defer workers.stop()
	total := 0
	for {
		n, ok := g.window(end, workers)
		if !ok {
			return total
		}
		total += n
	}
}

// window delivers staged messages, then executes one conservative window
// [T, T+lookahead) across the shards, clipped to end. It returns the events
// processed and whether any shard had an event below end.
func (g *ShardGroup) window(end time.Duration, w *workerSet) (int, bool) {
	g.deliverStaged()
	T := end
	for _, k := range g.shards {
		if at, ok := k.peekNext(); ok && at < T {
			T = at
		}
	}
	if T == end {
		return 0, false
	}
	bound := T + g.lookahead
	if bound > end || bound < T { // bound < T: the sum overflowed
		bound = end
	}
	n := w.runAll(g, bound)
	g.windows++
	return n, true
}

// deliverStaged merges every staged cross-shard message in deterministic
// (at, from, seq) order and schedules each on its destination shard. The
// merge buffer is reused across windows so a steady exchange allocates
// nothing.
func (g *ShardGroup) deliverStaged() {
	all := g.merge[:0]
	for i := range g.stage {
		if len(g.stage[i]) > 0 {
			all = append(all, g.stage[i]...)
			g.stage[i] = g.stage[i][:0]
		}
	}
	g.merge = all[:0]
	if len(all) == 0 {
		return
	}
	// Insertion sort: windows stage few messages, and stability by (at,
	// from, seq) is the determinism contract.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && lessMsg(all[j], all[j-1]); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	for _, m := range all {
		// At clamps to the destination's clock, so even a message the
		// lookahead rule should have made impossible never fires in the past.
		g.shards[m.to].AtArg(m.at, m.fn, m.arg)
		g.xmsgs++
	}
}

func lessMsg(a, b xmsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.seq < b.seq
}

// Close tears down every shard kernel (unwinding its live procs, shard by
// shard in index order) and the group. It is safe to call more than once.
func (g *ShardGroup) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, k := range g.shards {
		k.closeLocal()
	}
}

// workerSet owns one goroutine per shard for the duration of a run, so that
// shards execute a window in parallel; each window is a pair of channel
// operations per active shard. A shard's procs are coroutines of whichever
// goroutine is running the shard's dispatch loop — here its worker, a
// different one each run — so a proc's panic surfaces on the worker.
type workerSet struct {
	work       []chan time.Duration // window bound for the shard to run up to
	done       []chan int
	dispatched []bool // reused per-window dispatch mask
}

func (g *ShardGroup) startWorkers() *workerSet {
	w := &workerSet{
		work:       make([]chan time.Duration, len(g.shards)),
		done:       make([]chan int, len(g.shards)),
		dispatched: make([]bool, len(g.shards)),
	}
	for i, k := range g.shards {
		w.work[i] = make(chan time.Duration)
		w.done[i] = make(chan int)
		go func(k *Kernel, work chan time.Duration, done chan int) {
			for bound := range work {
				done <- k.runBefore(bound)
			}
		}(k, w.work[i], w.done[i])
	}
	return w
}

// runAll dispatches the window bound to every shard with pending work below
// it and collects their event counts — the barrier of the protocol.
func (w *workerSet) runAll(g *ShardGroup, bound time.Duration) int {
	dispatched := w.dispatched
	for i := range dispatched {
		dispatched[i] = false
	}
	for i, k := range g.shards {
		if at, ok := k.peekNext(); ok && at < bound {
			w.work[i] <- bound
			dispatched[i] = true
		}
	}
	n := 0
	for i := range g.shards {
		if dispatched[i] {
			n += <-w.done[i]
		}
	}
	return n
}

func (w *workerSet) stop() {
	for _, c := range w.work {
		close(c)
	}
}
