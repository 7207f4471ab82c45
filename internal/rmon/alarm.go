package rmon

import (
	"time"

	"repro/internal/mib"
	"repro/internal/sim"
)

// SampleType selects how an alarm interprets its variable.
type SampleType int

// Alarm sampling modes.
//
//lint:allow unusedexport RFC 2819 alarmSampleType values: absoluteValue(1) stays beside deltaValue(2) though only delta alarms are installed
const (
	// AbsoluteValue compares the sampled value directly.
	AbsoluteValue SampleType = 1
	// DeltaValue compares the difference between successive samples.
	DeltaValue SampleType = 2
)

// Alarm is an alarmTable row: it samples one MIB variable on an interval
// and fires rising/falling events with the RFC 2819 hysteresis rule (after
// a rising event, no further rising events until a falling threshold is
// crossed, and vice versa).
type Alarm struct {
	Index      int
	Interval   time.Duration
	Variable   mib.OID
	SampleType SampleType
	Rising     int64
	Falling    int64
	// RisingEvent and FallingEvent may be nil for one-sided alarms.
	RisingEvent  *Event
	FallingEvent *Event

	// LastValue is the most recent sampled (or delta) value.
	LastValue int64
	// Fired counts events emitted.
	RisingFired  int
	FallingFired int

	probe     *Probe
	tree      *mib.Tree
	prevRaw   int64
	havePrev  bool
	armedUp   bool // may fire rising
	armedDown bool // may fire falling
}

// AddAlarm installs and starts an alarm sampling proc. The variable is
// resolved against tree (normally the probe agent's own tree, per RMON).
func (p *Probe) AddAlarm(tree *mib.Tree, a Alarm) *Alarm {
	alarm := a
	alarm.Index = len(p.alarms) + 1
	alarm.probe = p
	alarm.tree = tree
	// Startup arming: rising may fire immediately; falling only after a
	// rising crossing (the common alarmStartupAlarm=risingAlarm setting —
	// a fresh alarm on a quiet wire should not announce "fell below").
	alarm.armedUp = true
	alarm.armedDown = false
	p.alarms = append(p.alarms, &alarm)
	p.Node.Spawn("rmon-alarm", func(proc *sim.Proc) {
		for {
			proc.Sleep(alarm.Interval)
			alarm.sampleOnce()
		}
	})
	return &alarm
}

func (a *Alarm) sampleOnce() {
	v, ok := a.tree.Get(a.Variable)
	if !ok {
		return
	}
	var raw int64
	switch v.Kind {
	case mib.KindInteger:
		raw = v.Int
	case mib.KindCounter32, mib.KindGauge32, mib.KindTimeTicks, mib.KindCounter64:
		raw = int64(v.Uint)
	default:
		return
	}
	sampled := raw
	if a.SampleType == DeltaValue {
		if !a.havePrev {
			a.prevRaw = raw
			a.havePrev = true
			return
		}
		sampled = raw - a.prevRaw
		a.prevRaw = raw
	}
	a.LastValue = sampled
	if sampled >= a.Rising && a.armedUp {
		a.armedUp = false
		a.armedDown = true
		a.RisingFired++
		a.probe.fire(a.RisingEvent, a.Index, true, sampled)
	} else if sampled <= a.Falling && a.armedDown {
		a.armedDown = false
		a.armedUp = true
		a.FallingFired++
		a.probe.fire(a.FallingEvent, a.Index, false, sampled)
	}
}

var alarmColumns = []mib.Column[*Alarm]{
	{Arc: 1, Get: func(a *Alarm) mib.Value { return mib.Int(int64(a.Index)) }},
	{Arc: 2, Get: func(a *Alarm) mib.Value { return mib.Int(int64(a.Interval / time.Second)) }},
	{Arc: 3, Get: func(a *Alarm) mib.Value { return mib.OIDVal(a.Variable) }},
	{Arc: 4, Get: func(a *Alarm) mib.Value { return mib.Int(int64(a.SampleType)) }},
	{Arc: 5, Get: func(a *Alarm) mib.Value { return mib.Int(a.LastValue) }},
	{Arc: 7, Get: func(a *Alarm) mib.Value { return mib.Int(a.Rising) }},
	{Arc: 8, Get: func(a *Alarm) mib.Value { return mib.Int(a.Falling) }},
	{Arc: 9, Get: func(a *Alarm) mib.Value { return mib.Int(eventIndex(a.RisingEvent)) }},
	{Arc: 10, Get: func(a *Alarm) mib.Value { return mib.Int(eventIndex(a.FallingEvent)) }},
}

// eventIndex is the eventIndex an alarm names, 0 for none.
func eventIndex(e *Event) int64 {
	if e == nil {
		return 0
	}
	return int64(e.Index)
}
