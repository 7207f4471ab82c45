package director

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
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
// A third check holds run recycling: the same offers through a coalescer
// that has already processed and drained another sequence (every
// direction inverted, other values) emit exactly what a fresh one emits,
// so a reused run carries no count, value or direction from its last life.
//
// Each input byte encodes one step: bits 0-1 pick a source, bits 2-3 a
// path, bit 4 the direction, bits 5-6 a time advance, bit 7 a flush.
// The first byte picks the window (including 0: pass-through mode).
func FuzzTrapCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x20, 0x10, 0x10, 0x10, 0x00, 0x90, 0x10})
	f.Add([]byte{0x00, 0x11, 0x01, 0x11, 0x01})                                     // zero window, alternating
	f.Add([]byte{0xff, 0x55, 0xaa, 0x55, 0xaa, 0x80, 0x55})                         // wide window, two streams
	f.Add([]byte{0x40, 0x10, 0x30, 0x50, 0x70, 0x90, 0xb0, 0xd0})                   // sweep sources/paths
	f.Add([]byte{0x01, 0x10, 0x10, 0x10, 0xe0, 0x10, 0x10, 0x00, 0x00, 0x11, 0x11}) // repeats, expiry, reopen, flip
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := time.Duration(data[0]%8) * 40 * time.Millisecond

		// drive offers data's steps to c, drains it, and returns every
		// trap it emitted in order. invert flips each offer's direction
		// and negates its value.
		drive := func(c *Coalescer, invert bool) []Trap {
			var out []Trap
			now := time.Duration(0)
			for i, b := range data[1:] {
				now += time.Duration(b>>5&3) * 25 * time.Millisecond
				if b&0x80 != 0 {
					c.Flush(now)
					out = append(out, c.Take()...)
					continue
				}
				tr := Trap{
					Source: fmt.Sprintf("s%d", b&3),
					Path:   core.PathID(fmt.Sprintf("p%d", b>>2&3)),
					Rising: b&0x10 != 0,
					Value:  float64(i),
					Count:  1,
					At:     now,
				}
				if invert {
					tr.Rising, tr.Value = !tr.Rising, -tr.Value-1
				}
				c.Offer(tr, now)
				out = append(out, c.Take()...)
			}
			c.Flush(now + time.Hour) // long past every window
			out = append(out, c.Take()...)
			if len(c.order) != 0 || len(c.pending) != 0 {
				t.Fatalf("a flush past every window left %d pending runs", len(c.pending))
			}
			return out
		}

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
		for _, b := range data[1:] {
			if b&0x80 != 0 {
				continue
			}
			s := get(coalesceKey{source: fmt.Sprintf("s%d", b&3), path: core.PathID(fmt.Sprintf("p%d", b>>2&3))})
			s.offered++
			if n := len(s.offDirs); n == 0 || s.offDirs[n-1] != (b&0x10 != 0) {
				s.offDirs = append(s.offDirs, b&0x10 != 0)
			}
		}
		fresh := drive(NewCoalescer(window), false)
		for _, tr := range fresh {
			s := get(coalesceKey{source: tr.Source, path: tr.Path})
			s.emitted += tr.Count
			if tr.Count == 0 {
				t.Fatalf("emitted zero-count trap %+v", tr)
			}
			if n := len(s.emitDirs); n == 0 || s.emitDirs[n-1] != tr.Rising {
				s.emitDirs = append(s.emitDirs, tr.Rising)
			}
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

		used := NewCoalescer(window)
		drive(used, true)
		reused := drive(used, false)
		if len(reused) != len(fresh) {
			t.Fatalf("a used coalescer emitted %d traps where a fresh one emitted %d", len(reused), len(fresh))
		}
		for i := range fresh {
			if reused[i] != fresh[i] {
				t.Fatalf("trap %d: a used coalescer emitted %+v where a fresh one emitted %+v", i, reused[i], fresh[i])
			}
		}
	})
}

// FuzzSupervise drives one parent's liveness decisions without running
// the kernel: a stub tree of 2–4 leaves takes arbitrary sequences of host
// failures and revivals, heartbeats and clock advances, and after every
// step the parent runs one supervise tick (liveness). After each tick:
//
//  1. Every submitted path sits in exactly one leaf's assignment, and that
//     leaf's member has exactly those paths installed.
//  2. No leaf that was up and heard within AdoptAfter before the tick is
//     adopted by the tick.
//  3. While any leaf is live (up and not declared dead), no dead leaf
//     holds a path.
//  4. Once every leaf is up and heard, one tick gives each leaf back
//     exactly its home share (checked by a dedicated step).
//
// The first byte picks the leaf count and the number of paths; each
// further byte is one step: bits 0-2 the operation, bits 3-7 its operand.
func FuzzSupervise(f *testing.F) {
	// Seed steps: leaf i down i<<3, up i<<3|1, heard i<<3|2; advance
	// x·100ms x<<3|3; all up and heard 5.
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x2b, 0x0a, 0x2b, 0x0a, 0x2b, 0x0a, 0x01, 0x02, 0x05}) // leaf0 dies, is adopted, returns
	f.Add([]byte{0x00, 0x00, 0x08, 0x5b, 0x09, 0x0a, 0x05})                         // both die, leaf1 returns first
	f.Add([]byte{0x02, 0x2b, 0x02, 0x0a, 0x12, 0x1a, 0x2b, 0x2b, 0x0a, 0x2b,        // four leaves, uneven heartbeats, leaf0 dies
		0x00, 0x5b, 0x5b, 0x5b, 0x5b, 0x5b, 0x5b, 0x05})
	f.Add([]byte{0x01, 0x00, 0x08, 0x10, 0x5b, 0x09, 0x5b, 0x0a, 0x01, 0x5b, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := sim.NewKernel()
		defer k.Close()
		nw := netsim.New(k, 1)
		cfg := Config{}
		root := New(nw.NewHost("root"), "root", cfg)
		n := 2 + int(data[0]%3)
		var leaves []*Director
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("leaf%d", i)
			l := NewLeaf(nw.NewHost(netsim.Addr(name)), name, newStubMember(k), cfg)
			root.AddChild(l)
			leaves = append(leaves, l)
		}
		var paths []core.Path
		for i := 0; i < n+int(data[0]>>2%8); i++ {
			paths = append(paths, core.Path{ID: core.PathID(fmt.Sprintf("p%d", i))})
		}
		root.Submit(core.Request{Paths: paths})
		adoptAfter := root.Cfg.AdoptAfter

		ids := func(ps []core.Path) string {
			var b strings.Builder
			for _, p := range ps {
				b.WriteString(string(p.ID) + " ")
			}
			return b.String()
		}
		var now time.Duration
		// healthy lists the leaves invariant 2 protects from the next tick.
		healthy := func() []*Director {
			var out []*Director
			for _, l := range leaves {
				if l.Host.Up() && now-l.heard <= adoptAfter {
					out = append(out, l)
				}
			}
			return out
		}
		tick := func() {
			before, events := healthy(), len(root.Events)
			root.liveness(now)
			for _, ev := range root.Events[events:] {
				for _, l := range before {
					if strings.Contains(ev, " adopt "+l.Name+"->") {
						t.Fatalf("healthy %s adopted at %v (heard %v): %q", l.Name, now, l.heard, ev)
					}
				}
			}
			owner := map[core.PathID]int{}
			live := false
			for _, l := range leaves {
				for _, p := range l.assigned {
					owner[p.ID]++
				}
				if got := ids(l.member.(*stubMember).Request().Paths); got != ids(l.assigned) {
					t.Fatalf("%s assigned [%s] but its member runs [%s]", l.Name, ids(l.assigned), got)
				}
				live = live || (l.Host.Up() && !l.dead)
			}
			for _, p := range paths {
				if owner[p.ID] != 1 {
					t.Fatalf("path %s held by %d leaves", p.ID, owner[p.ID])
				}
			}
			for _, l := range leaves {
				if live && l.dead && len(l.assigned) > 0 {
					t.Fatalf("dead %s still holds [%s] while a sibling is live", l.Name, ids(l.assigned))
				}
			}
		}

		for _, b := range data[1:] {
			l, arg := leaves[int(b>>3)%n], int(b>>3)
			switch b & 7 {
			case 0:
				l.Host.SetUp(false)
			case 1:
				l.Host.SetUp(true)
			case 2:
				l.heard = now
			case 3:
				now += time.Duration(arg) * 100 * time.Millisecond
			case 5:
				for _, l := range leaves {
					l.Host.SetUp(true)
					l.heard = now
				}
				tick()
				for i, l := range leaves {
					var home []core.Path
					for j := i; j < len(paths); j += n {
						home = append(home, paths[j])
					}
					if ids(l.assigned) != ids(home) {
						t.Fatalf("all up and heard: %s holds [%s], home is [%s]", l.Name, ids(l.assigned), ids(home))
					}
				}
				continue
			default:
				continue
			}
			tick()
		}
	})
}
