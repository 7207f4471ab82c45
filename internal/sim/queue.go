package sim

import "time"

// Queue is an unbounded-or-bounded FIFO connecting simulated processes.
// Producers call Put, which never blocks (a full bounded queue drops the
// item); consumers call Get, which blocks the calling Proc until an item
// arrives or the timeout elapses — or the queue has one consumer that
// kernel events run, installed by Serve. All operations run under the
// kernel's cooperative scheduling, so no locking is required.
//
// Neither call allocates in steady state: items and blocked consumers sit
// in ring buffers, and the record of a blocked Get is recycled on a
// per-queue free list whose length is bounded by the most consumers ever
// blocked at once. A queue holds no closure (a waiter holds its queue, and
// a timed Get arms the package-level expireWaiter), so NewQueue costs one
// object and a queue its owner embeds and readies with Init costs none.
type Queue[T any] struct {
	k       *Kernel
	items   FIFO[T]
	cap     int // 0 means unbounded
	waiters FIFO[*qwaiter[T]]
	free    []*qwaiter[T]
	srv     *server[T] // the served consumer; nil until Serve
}

// qwaiter is one blocked Get. Put hands it the item and takes it off the
// waiter ring; the consumer returns it to the free list when it resumes.
type qwaiter[T any] struct {
	q     *Queue[T]
	p     *Proc
	item  T
	ok    bool
	timer Timer
}

// NewQueue returns a queue with the given capacity; capacity 0 means
// unbounded. When a bounded queue is full, Put drops the item (tail drop)
// and reports false, for the caller to count.
func NewQueue[T any](k *Kernel, capacity int) *Queue[T] {
	q := new(Queue[T])
	q.Init(k, capacity)
	return q
}

// Init readies a zero Queue in place, as NewQueue does a new one: for a
// queue embedded in its owner.
func (q *Queue[T]) Init(k *Kernel, capacity int) { q.k, q.cap = k, capacity }

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Put appends an item, waking the longest-waiting consumer if any. On a full
// bounded queue the item is dropped and Put reports false.
func (q *Queue[T]) Put(item T) bool {
	if s := q.srv; s != nil && s.state == serveIdle {
		s.item, s.state = item, serveWaking
		q.k.AtArg(q.k.now, serveEvent, s)
		return true
	}
	if w, ok := q.waiters.Pop(); ok {
		w.item = item
		w.ok = true
		w.timer.Stop()
		q.k.AtArg(q.k.now, wakeProc, w.p)
		return true
	}
	if q.cap > 0 && q.items.Len() >= q.cap {
		return false
	}
	q.items.Push(item)
	return true
}

// Get removes and returns the oldest item, blocking the proc until one is
// available. A negative timeout blocks forever; a zero timeout polls. The
// second result is false when the timeout expired first.
func (q *Queue[T]) Get(p *Proc, timeout time.Duration) (T, bool) {
	if q.srv != nil {
		panic("sim: Get on a served queue")
	}
	if item, ok := q.items.Pop(); ok {
		return item, true
	}
	var zero T
	if timeout == 0 {
		return zero, false
	}
	var w *qwaiter[T]
	if n := len(q.free); n > 0 {
		w = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		w = new(qwaiter[T]) // free-list refill: only when more consumers block at once than ever before
	}
	w.q, w.p = q, p
	q.waiters.Push(w)
	if timeout > 0 {
		w.timer = q.k.AfterArg(timeout, expireWaiter, w)
	}
	p.park()
	// Put or the timeout took w off the ring and its timer is spent, so
	// nothing else refers to it: recycle it.
	item, ok := w.item, w.ok
	*w = qwaiter[T]{}
	q.free = append(q.free, w)
	return item, ok
}

// expirer is a waiter whose timed Get can expire; expireWaiter reaches
// qwaiter's method through it, so arming the timer binds no closure (nor
// the instantiation of a generic function, which would be one).
type expirer interface{ expire() }

func expireWaiter(arg any) { arg.(expirer).expire() }

// expire ends a blocked Get: w leaves its queue's waiter ring (wherever in
// it the expiry finds it) and its proc resumes empty-handed. Put stops the
// timer of the waiter it serves, so w is still waiting when this runs.
func (w *qwaiter[T]) expire() {
	q := w.q
	for i := 0; i < q.waiters.Len(); i++ {
		if q.waiters.At(i) == w {
			q.waiters.Remove(i)
			break
		}
	}
	q.k.resumeProc(w.p)
}

// Drain removes and returns all buffered items without blocking.
func (q *Queue[T]) Drain() []T { return q.items.Drain() }

// Serve makes the queue's one consumer a server that kernel events run, with
// no proc behind it. It schedules the same events, at the same instants and
// in the same order, as a proc spawned now that runs
//
//	for more() {
//		x, _ := q.Get(p, -1)
//		if d := service(x); d > 0 {
//			p.Sleep(d)
//		}
//		handle(x)
//	}
//
// a start event now; a wake event at the current instant when Put hands an
// item to the idle server (bypassing the cap, as it does for a blocked Get);
// and a done event d after the item's service began. Only the two coroutine
// switches per wake-up go. A nil more serves for ever. Once more reports
// false the queue has no consumer left and Put buffers; as in the loop, more
// is asked only before each Get, so an idle server still takes and handles
// one more item after more turns false.
//
// A panic in service or handle surfaces from the Run or RunUntil call that
// fired the event, as the raw panic value on that caller's goroutine with its
// stack intact — no coroutine stands between, so it is not wrapped with a
// name as a proc's is — and leaves the server stopped: later Puts buffer, as
// they would for a consumer proc that died. Serve allocates once. Get on a
// served queue panics, and so does a second Serve.
func (q *Queue[T]) Serve(more func() bool, service func(T) time.Duration, handle func(T)) {
	switch {
	case q.k.closed:
		panic("sim: Serve on closed kernel")
	case q.srv != nil:
		panic("sim: Serve on a served queue")
	case q.waiters.Len() > 0:
		panic("sim: Serve on a queue with a blocked Get")
	}
	if more == nil {
		more = always
	}
	q.srv = &server[T]{q: q, more: more, service: service, handle: handle}
	q.k.AtArg(q.k.now, serveEvent, q.srv)
}

// InService reports how many items the served consumer holds: handed over
// or taken from the buffer and not yet handed to handle. It is 0 or 1, and
// 0 on a queue that is not served.
func (q *Queue[T]) InService() int {
	if s := q.srv; s != nil && (s.state == serveWaking || s.state == serveBusy) {
		return 1
	}
	return 0
}

func always() bool { return true }

// server is a served queue's consumer: the state of the proc loop Serve
// replaces, kept beside the queue instead of on a coroutine's stack.
type server[T any] struct {
	q       *Queue[T]
	more    func() bool
	service func(T) time.Duration
	handle  func(T)
	state   serveState
	item    T // the item in service, while state is serveWaking or serveBusy
}

type serveState uint8

const (
	_             serveState = iota // zero: the start event is pending, and Put buffers
	serveIdle                       // the loop's blocked Get: Put hands the item over
	serveWaking                     // Put handed an item over; its wake event is pending
	serveBusy                       // an item is in service; its done event is pending
	serveHandling                   // handle runs (or panicked out of it)
	serveEnded                      // more reported false
)

// stepper is a server, which serveEvent reaches through it as expireWaiter
// reaches a qwaiter: scheduling binds no closure.
type stepper interface{ step() }

func serveEvent(arg any) { arg.(stepper).step() }

// step is the server's one event function: the start, wake and done events
// differ only in the state they find. It runs the loop on from there until
// it blocks again: idle on an empty queue, busy on an item that takes
// service time, or ended.
func (s *server[T]) step() {
	switch s.state {
	case serveWaking:
		if s.begin() {
			return
		}
	case serveBusy:
		s.finish()
	}
	for s.more() {
		x, ok := s.q.items.Pop()
		if !ok {
			s.state = serveIdle
			return
		}
		s.item = x
		if s.begin() {
			return
		}
	}
	s.state = serveEnded
}

// begin starts serving s.item. An item that takes service time arms its done
// event and begin reports true; one that takes none is handled at once.
func (s *server[T]) begin() bool {
	s.state = serveBusy
	if d := s.service(s.item); d > 0 {
		s.q.k.AfterArg(d, serveEvent, s)
		return true
	}
	s.finish()
	return false
}

// finish hands the item in service to handle. The server lets go of the item
// first, so a handler that panics leaves nothing in service.
func (s *server[T]) finish() {
	x := s.item
	var zero T
	s.item, s.state = zero, serveHandling
	s.handle(x)
}
