package sim

import (
	"reflect"
	"testing"
)

func fifoContents[T any](f *FIFO[T]) []T {
	out := make([]T, 0, f.Len())
	for i := 0; i < f.Len(); i++ {
		out = append(out, f.At(i))
	}
	return out
}

func TestFIFOWrapAround(t *testing.T) {
	var f FIFO[int]
	if _, ok := f.Pop(); ok {
		t.Fatal("Pop on the zero FIFO succeeded")
	}
	// Keep 5 items in flight through many times the ring's size, so head
	// and tail both wrap repeatedly without the ring ever growing.
	next, want := 0, 0
	for ; next < 5; next++ {
		f.Push(next)
	}
	size := len(f.buf)
	for i := 0; i < 10*size; i++ {
		v, ok := f.Pop()
		if !ok || v != want {
			t.Fatalf("step %d: Pop = (%d, %v), want (%d, true)", i, v, ok, want)
		}
		want++
		f.Push(next)
		next++
	}
	if len(f.buf) != size {
		t.Fatalf("ring grew from %d to %d slots at a constant depth of 5", size, len(f.buf))
	}
	if f.Len() != 5 {
		t.Fatalf("Len = %d, want 5", f.Len())
	}
}

func TestFIFOGrowthPreservesOrder(t *testing.T) {
	var f FIFO[int]
	// Offset the head first so that growth has a wrapped ring to unwrap.
	for i := 0; i < 6; i++ {
		f.Push(-1)
	}
	for i := 0; i < 6; i++ {
		f.Pop()
	}
	const n = 1000
	for i := 0; i < n; i++ {
		f.Push(i)
	}
	if size := len(f.buf); size&(size-1) != 0 || size < n {
		t.Fatalf("ring has %d slots for %d items, want a power of two that holds them", size, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := f.Pop(); !ok || v != i {
			t.Fatalf("Pop %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := f.Pop(); ok || f.Len() != 0 {
		t.Fatal("FIFO not empty after popping everything")
	}
}

func TestFIFOZeroesVacatedSlots(t *testing.T) {
	var f FIFO[*int]
	for i := 0; i < 20; i++ {
		f.Push(new(int))
	}
	for i := 0; i < 7; i++ {
		f.Pop()
	}
	f.Remove(3)
	f.Remove(f.Len() - 1)
	live := 0
	for _, p := range f.buf {
		if p != nil {
			live++
		}
	}
	if live != f.Len() {
		t.Fatalf("%d slots still hold a pointer, %d items are queued: a vacated slot pins its item", live, f.Len())
	}
	f.Drain()
	for i, p := range f.buf {
		if p != nil {
			t.Fatalf("slot %d holds a pointer after Drain", i)
		}
	}
}

func TestFIFORemoveFromMiddle(t *testing.T) {
	var f FIFO[int]
	// Wrap the ring so that the removal shifts items across the seam.
	for i := 0; i < 6; i++ {
		f.Push(-1)
	}
	for i := 0; i < 6; i++ {
		f.Pop()
	}
	for i := 0; i < 6; i++ {
		f.Push(i)
	}
	f.Remove(2)
	if got := fifoContents(&f); !reflect.DeepEqual(got, []int{0, 1, 3, 4, 5}) {
		t.Fatalf("after Remove(2): %v", got)
	}
	f.Remove(0)
	f.Remove(f.Len() - 1)
	if got := fifoContents(&f); !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Fatalf("after removing both ends: %v", got)
	}
	f.Push(9)
	if got := fifoContents(&f); !reflect.DeepEqual(got, []int{1, 3, 4, 9}) {
		t.Fatalf("after Push: %v", got)
	}
	for _, i := range []int{-1, f.Len()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Remove(%d) with %d items did not panic", i, f.Len())
				}
			}()
			f.Remove(i)
		}()
	}
}

func TestFIFODrain(t *testing.T) {
	var f FIFO[int]
	if got := f.Drain(); got != nil {
		t.Fatalf("Drain of an empty FIFO = %v, want nil", got)
	}
	for i := 0; i < 12; i++ {
		f.Push(i)
	}
	f.Pop()
	if got := f.Drain(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) {
		t.Fatalf("Drain = %v", got)
	}
	if f.Len() != 0 {
		t.Fatalf("Len after Drain = %d", f.Len())
	}
	f.Push(42)
	if v, ok := f.Pop(); !ok || v != 42 {
		t.Fatalf("Pop after Drain = (%d, %v)", v, ok)
	}
}
