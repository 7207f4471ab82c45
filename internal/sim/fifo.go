package sim

// FIFO is a growable ring buffer: the queue behind Queue's items and
// waiters and netsim's interface and segment backlogs. Push and Pop are
// O(1) and allocate only when the ring grows, so a queue that has reached
// its working depth costs nothing per item — unlike `q = q[1:]` plus append,
// which slides the window off the backing array and reallocates every cap
// items. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // len is zero or a power of two, so indices wrap with a mask
	head int // index of the oldest item
	n    int
}

// Len reports the number of queued items.
func (f *FIFO[T]) Len() int { return f.n }

// Push appends v at the tail.
func (f *FIFO[T]) Push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// Pop removes and returns the oldest item; ok is false on an empty queue.
// The vacated slot is zeroed so the ring never pins a popped pointer.
func (f *FIFO[T]) Pop() (v T, ok bool) {
	if f.n == 0 {
		return v, false
	}
	var zero T
	v = f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v, true
}

// At returns the i-th oldest item, 0 <= i < Len.
func (f *FIFO[T]) At(i int) T {
	if i < 0 || i >= f.n {
		panic("sim: FIFO index out of range")
	}
	return f.buf[(f.head+i)&(len(f.buf)-1)]
}

// Remove deletes the i-th oldest item, keeping the order of the rest.
func (f *FIFO[T]) Remove(i int) {
	if i < 0 || i >= f.n {
		panic("sim: FIFO index out of range")
	}
	mask := len(f.buf) - 1
	for ; i < f.n-1; i++ {
		f.buf[(f.head+i)&mask] = f.buf[(f.head+i+1)&mask]
	}
	var zero T
	f.buf[(f.head+i)&mask] = zero
	f.n--
}

// Drain removes every item and returns them oldest first (nil when empty).
// The ring keeps its capacity.
func (f *FIFO[T]) Drain() []T {
	if f.n == 0 {
		return nil
	}
	out := make([]T, 0, f.n)
	for f.n > 0 {
		v, _ := f.Pop()
		out = append(out, v)
	}
	return out
}

// grow doubles a full ring, unwrapping the items to the front of the new one.
func (f *FIFO[T]) grow() {
	size := 2 * len(f.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	n := copy(buf, f.buf[f.head:])
	copy(buf[n:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}
