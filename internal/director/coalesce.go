// Package director implements a hierarchical sensor-director tree: leaf
// directors own a shard of agents/paths and drive a concrete monitor
// (cots, hifi, ...); interior directors aggregate their children's summary
// records and re-export upward; the root serves the resource manager the
// same (path, metric) Monitor/FreshQuerier API as a single director, so
// internal/manager runs unchanged.
//
// The package exists for the overload path the paper hits in §5.2 — a flat
// management station overrun by trap floods. Every director bounds its
// trap and record ingest queues with explicit drop accounting, coalesces
// same-(source, path, direction) threshold traps within a window into one
// summary trap carrying a count, sheds load under a high-water mark by
// widening its coalescing window and stretching its children's re-export
// intervals (resilience backoff schedule), and marks upstream data stale
// via senescence watchdogs rather than serving silently-wrong values.
// When a leaf director dies, its parent re-assigns the orphaned shard to a
// sibling, which re-adopts the already-deployed agents through the shared
// cots.AgentRegistry. See DESIGN.md §13.
package director

import (
	"time"

	"repro/internal/core"
)

// Trap is one threshold event flowing up the tree: an RMON rising/falling
// alarm (or any sensor event) attributed to a source and a path. Count
// carries multiplicity: a coalesced summary trap stands for Count
// identical events.
type Trap struct {
	Source string
	Path   core.PathID
	Rising bool
	Value  float64
	Count  uint64
	// At is the virtual time of the (first) underlying event.
	At time.Duration
}

// coalesceKey identifies a trap stream: same source, same path. Direction
// is deliberately not part of the key — a direction change must flush the
// pending run so orderings are preserved.
type coalesceKey struct {
	source string
	path   core.PathID
}

// crun is a pending accumulation run: events of one direction on one key
// absorbed since the run opened, awaiting the window to expire.
type crun struct {
	rising   bool
	value    float64
	count    uint64
	openedAt time.Duration
}

// Coalescer deduplicates trap streams: the first trap of a (source, path)
// stream — and the first after every direction change — passes through
// immediately (the leading edge, so detection latency is never traded
// away), while subsequent same-direction repeats within Window are
// absorbed into one summary trap emitted when the window expires. A zero
// Window disables coalescing entirely (pure pass-through), which is how
// the flat §5.2-era station is modeled.
//
// The type is pure sequential logic with no clock of its own — callers
// pass virtual time in — so it can be driven exhaustively by
// FuzzTrapCoalesce. Invariants (fuzz-checked): total emitted Count equals
// total offered Count once drained, and per key the emitted direction
// sequence is exactly the offered one.
type Coalescer struct {
	window  time.Duration
	pending map[coalesceKey]*crun
	order   []coalesceKey // insertion order of pending runs: deterministic flush
	out     []Trap

	// Coalesced counts traps absorbed into a pending run instead of being
	// forwarded individually.
	Coalesced uint64
}

// NewCoalescer returns a coalescer with the given base window.
func NewCoalescer(window time.Duration) *Coalescer {
	return &Coalescer{window: window, pending: make(map[coalesceKey]*crun)}
}

// SetWindow adjusts the coalescing window; pending runs keep their opening
// time, so widening takes effect immediately and narrowing flushes on the
// next Flush call.
func (c *Coalescer) SetWindow(w time.Duration) { c.window = w }

// Offer feeds one trap at virtual time now. Leading edges (new stream or
// direction change) are appended to the emit buffer immediately;
// same-direction repeats are absorbed. A direction change first flushes
// the absorbed run so no ordering is lost.
func (c *Coalescer) Offer(t Trap, now time.Duration) {
	if c.window <= 0 {
		c.out = append(c.out, t)
		return
	}
	k := coalesceKey{source: t.Source, path: t.Path}
	r := c.pending[k]
	if r != nil && r.rising == t.Rising {
		r.count += t.Count
		r.value = t.Value
		c.Coalesced += t.Count
		return
	}
	if r != nil {
		// Direction change: the absorbed run must leave before the new edge.
		c.emitRun(k, r)
		delete(c.pending, k)
		c.dropFromOrder(k)
	}
	c.out = append(c.out, t)
	c.pending[k] = &crun{rising: t.Rising, value: t.Value, openedAt: now}
	c.order = append(c.order, k)
}

// Flush emits the summary trap of every run whose window has expired at
// virtual time now, in run-opening order. Expired runs close entirely, so
// the next trap on the stream is a fresh leading edge.
func (c *Coalescer) Flush(now time.Duration) {
	if len(c.order) == 0 {
		return
	}
	kept := c.order[:0]
	for _, k := range c.order {
		r := c.pending[k]
		if r == nil {
			continue
		}
		if now-r.openedAt < c.window {
			kept = append(kept, k)
			continue
		}
		c.emitRun(k, r)
		delete(c.pending, k)
	}
	c.order = kept
}

// Take returns the emit buffer and resets it; the slice is reused by the
// next Offer/Flush, so callers must consume it before offering again.
func (c *Coalescer) Take() []Trap {
	out := c.out
	c.out = c.out[:0]
	return out
}

// emitRun appends the run's summary trap if it absorbed anything. A run
// that only ever held its (already-emitted) leading edge emits nothing.
func (c *Coalescer) emitRun(k coalesceKey, r *crun) {
	if r.count == 0 {
		return
	}
	c.out = append(c.out, Trap{
		Source: k.source, Path: k.path, Rising: r.rising,
		Value: r.value, Count: r.count, At: r.openedAt,
	})
}

func (c *Coalescer) dropFromOrder(k coalesceKey) {
	for i, x := range c.order {
		if x == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}
