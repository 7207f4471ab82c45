package sim

import "time"

// Queue is an unbounded-or-bounded FIFO connecting simulated processes.
// Producers call Put, which never blocks (a full bounded queue drops the
// item); consumers call Get, which blocks the calling Proc until an item
// arrives or the timeout elapses. All operations run under the kernel's
// cooperative scheduling, so no locking is required.
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
	dropped int
	waiters FIFO[*qwaiter[T]]
	free    []*qwaiter[T]
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
// and counts it.
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
	if w, ok := q.waiters.Pop(); ok {
		w.item = item
		w.ok = true
		w.timer.Stop()
		q.k.AtArg(q.k.now, wakeProc, w.p)
		return true
	}
	if q.cap > 0 && q.items.Len() >= q.cap {
		q.dropped++
		return false
	}
	q.items.Push(item)
	return true
}

// Get removes and returns the oldest item, blocking the proc until one is
// available. A negative timeout blocks forever; a zero timeout polls. The
// second result is false when the timeout expired first.
func (q *Queue[T]) Get(p *Proc, timeout time.Duration) (T, bool) {
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
