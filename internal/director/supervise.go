package director

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
)

// liveness is the supervisor tick of a director with children, at virtual
// time now: child liveness and shard failover. A leaf silent past
// AdoptAfter is declared dead; a dead one up and heard again reclaims its
// home shard. Then each dead leaf still holding paths hands them to a live
// sibling, if there is one. An orphaned shard's data goes stale under the
// senescence watchdog until the adopter's first re-export lands: staleness
// is surfaced, freshness is never fabricated.
func (d *Director) liveness(now time.Duration) {
	for _, c := range d.children {
		if c.member == nil {
			continue
		}
		heard := now-c.heard <= d.Cfg.AdoptAfter
		switch {
		case !c.dead && !heard:
			c.dead = true
		case c.dead && heard && c.up():
			c.dead = false
			d.reclaim(c, now)
		}
	}
	for i, c := range d.children {
		if c.dead && len(c.assigned) > 0 {
			if a := d.pickAdopter(i); a != nil {
				d.adopt(c, a, now)
			}
		}
	}
}

// pickAdopter chooses the first live leaf sibling after the orphan in
// attachment order — deterministic and load-spreading enough for a drill.
func (d *Director) pickAdopter(orphan int) *Director {
	n := len(d.children)
	for off := 1; off < n; off++ {
		c := d.children[(orphan+off)%n]
		if c.member != nil && c.up() && !c.dead {
			return c
		}
	}
	return nil
}

// adopt moves the orphan's current shard onto the adopter. The adopter's
// member re-submits the union request; agents already deployed on the
// orphaned shard's hosts are found in the shared cots.AgentRegistry, so
// adoption re-uses them rather than re-deploying.
func (d *Director) adopt(orphan, adopter *Director, now time.Duration) {
	moved := len(orphan.assigned)
	adopter.assigned = append(adopter.assigned, orphan.assigned...)
	orphan.assigned = orphan.assigned[:0]
	orphan.member.Submit(core.Request{Metrics: d.metricsL})
	adopter.member.Submit(core.Request{Paths: adopter.assigned, Metrics: d.metricsL})
	d.Stats.Adoptions++
	d.Events = append(d.Events, fmt.Sprintf("%v adopt %s->%s (%d paths)", now, orphan.Name, adopter.Name, moved))
}

// reclaim hands a revived leaf its home shard back, trimming it from
// whichever siblings adopted it. Paths the leaf adopted before it died
// stay with it, after its home share: their own leaves are still dead.
func (d *Director) reclaim(c *Director, now time.Duration) {
	homeIDs := make(map[core.PathID]bool, len(c.home))
	for _, p := range c.home {
		homeIDs[p.ID] = true
	}
	for _, s := range d.children {
		if s.member == nil {
			continue
		}
		// A fresh list: the old one is the Paths of the sibling's last
		// request, which a sweep blocked in its polls reads again.
		kept := make([]core.Path, 0, len(s.assigned))
		for _, p := range s.assigned {
			if !homeIDs[p.ID] {
				kept = append(kept, p)
			}
		}
		trimmed := len(kept) < len(s.assigned)
		s.assigned = kept
		if trimmed && s != c {
			s.member.Submit(core.Request{Paths: s.assigned, Metrics: d.metricsL})
		}
	}
	c.assigned = append(slices.Clone(c.home), c.assigned...)
	c.member.Submit(core.Request{Paths: c.assigned, Metrics: d.metricsL})
	d.Stats.Reclaims++
	d.Events = append(d.Events, fmt.Sprintf("%v reclaim %s (%d paths)", now, c.Name, len(c.home)))
}
