package director

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzTrapCoalesce drives the coalescer with arbitrary interleavings of
// rising/falling traps across sources and paths, interspersed with
// window-expiry flushes, and checks the two invariants that make
// coalescing safe to put between a sensor and the operator console:
//
//  1. Count conservation — once drained, the sum of emitted Counts per
//     (source, path) stream equals the number of traps offered to it.
//     Deduplication compresses, it never loses (or invents) events.
//  2. No lost direction changes — per stream, the emitted direction
//     sequence, with consecutive repeats collapsed, is exactly the
//     offered one. An operator who saw "rising, falling, rising" is never
//     shown "rising" alone, and never sees an inversion.
//
// Each input byte encodes one step: bits 0-1 pick a source, bits 2-3 a
// path, bit 4 the direction, bits 5-6 a time advance, bit 7 a flush.
// The first byte picks the window (including 0: pass-through mode).
func FuzzTrapCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x20, 0x10, 0x10, 0x10, 0x00, 0x90, 0x10})
	f.Add([]byte{0x00, 0x11, 0x01, 0x11, 0x01})                   // zero window, alternating
	f.Add([]byte{0xff, 0x55, 0xaa, 0x55, 0xaa, 0x80, 0x55})       // wide window, two streams
	f.Add([]byte{0x40, 0x10, 0x30, 0x50, 0x70, 0x90, 0xb0, 0xd0}) // sweep sources/paths
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := time.Duration(data[0]%8) * 40 * time.Millisecond
		c := NewCoalescer(window)

		type stream struct {
			offered  uint64
			emitted  uint64
			offDirs  []bool
			emitDirs []bool
		}
		streams := map[coalesceKey]*stream{}
		get := func(k coalesceKey) *stream {
			s := streams[k]
			if s == nil {
				s = &stream{}
				streams[k] = s
			}
			return s
		}
		collect := func() {
			for _, tr := range c.Take() {
				s := get(coalesceKey{source: tr.Source, path: tr.Path})
				s.emitted += tr.Count
				if tr.Count == 0 {
					t.Fatalf("emitted zero-count trap %+v", tr)
				}
				if n := len(s.emitDirs); n == 0 || s.emitDirs[n-1] != tr.Rising {
					s.emitDirs = append(s.emitDirs, tr.Rising)
				}
			}
		}

		now := time.Duration(0)
		for _, b := range data[1:] {
			now += time.Duration(b>>5&3) * 25 * time.Millisecond
			if b&0x80 != 0 {
				c.Flush(now)
				collect()
				continue
			}
			tr := Trap{
				Source: fmt.Sprintf("s%d", b&3),
				Path:   core.PathID(fmt.Sprintf("p%d", b>>2&3)),
				Rising: b&0x10 != 0,
				Count:  1,
				At:     now,
			}
			s := get(coalesceKey{source: tr.Source, path: tr.Path})
			s.offered++
			if n := len(s.offDirs); n == 0 || s.offDirs[n-1] != tr.Rising {
				s.offDirs = append(s.offDirs, tr.Rising)
			}
			c.Offer(tr, now)
			collect()
		}
		c.Flush(now + time.Hour) // long past every window
		collect()
		if len(c.order) != 0 || len(c.pending) != 0 {
			t.Fatalf("a flush past every window left %d pending runs", len(c.pending))
		}

		for k, s := range streams {
			if s.offered != s.emitted {
				t.Fatalf("stream %v: offered %d != emitted %d (counts not conserved)",
					k, s.offered, s.emitted)
			}
			if len(s.offDirs) != len(s.emitDirs) {
				t.Fatalf("stream %v: direction sequence %v became %v", k, s.offDirs, s.emitDirs)
			}
			for i := range s.offDirs {
				if s.offDirs[i] != s.emitDirs[i] {
					t.Fatalf("stream %v: direction sequence %v became %v", k, s.offDirs, s.emitDirs)
				}
			}
		}
	})
}
