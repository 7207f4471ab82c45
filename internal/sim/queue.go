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
// blocked at once.
type Queue[T any] struct {
	k       *Kernel
	items   FIFO[T]
	cap     int // 0 means unbounded
	dropped int
	waiters FIFO[*qwaiter[T]]
	free    []*qwaiter[T]
	// timeoutFn is q.timeout bound once, so a timed Get schedules its
	// expiry with the waiter as the event argument instead of a closure.
	timeoutFn func(any)
}

// qwaiter is one blocked Get. Put hands it the item and takes it off the
// waiter ring; the consumer returns it to the free list when it resumes.
type qwaiter[T any] struct {
	p     *Proc
	item  T
	ok    bool
	timer Timer
}

// NewQueue returns a queue with the given capacity; capacity 0 means
// unbounded. When a bounded queue is full, Put drops the item (tail drop)
// and records it in Dropped.
func NewQueue[T any](k *Kernel, capacity int) *Queue[T] {
	q := &Queue[T]{k: k, cap: capacity}
	q.timeoutFn = q.timeout
	return q
}

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
	w.p = p
	q.waiters.Push(w)
	if timeout > 0 {
		w.timer = q.k.AfterArg(timeout, q.timeoutFn, w)
	}
	p.park()
	// Put or the timeout took w off the ring and its timer is spent, so
	// nothing else refers to it: recycle it.
	item, ok := w.item, w.ok
	*w = qwaiter[T]{}
	q.free = append(q.free, w)
	return item, ok
}

// timeout expires a blocked Get: w leaves the waiter ring (wherever in it
// the expiry finds it) and its proc resumes empty-handed. Put stops the
// timer of the waiter it serves, so w is still waiting when this runs.
func (q *Queue[T]) timeout(arg any) {
	w := arg.(*qwaiter[T])
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
