package sim

import (
	"errors"
	"time"
)

// errKilled is the sentinel panic value that unwinds a Proc parked when its
// kernel closes: park raises it, the proc's deferred calls run, and the
// coroutine body swallows it.
var errKilled = errors.New("sim: proc killed")

// Proc is a simulated sequential process: a coroutine the kernel switches to
// when one of the proc's wake-up events fires and that switches back when it
// blocks. Its methods must only be called from within the process's own
// function.
type Proc struct {
	k    *Kernel
	name string
	done bool

	// The coroutine (see newCoroutine): the kernel calls next to run the proc
	// up to its next park and stop to unwind it; the proc calls yield to park.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// Links of the kernel's spawn-ordered list of live procs.
	prevLive, nextLive *Proc
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// park yields control back to the kernel until some event resumes the proc.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(errKilled) // the kernel is closing
	}
}

// Sleep suspends the proc for d of virtual time. Non-positive durations
// yield the proc and let other events at the same timestamp run first.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.AfterArg(d, wakeProc, p)
	p.park()
}

// Yield lets every other event already scheduled for the current instant run
// before the proc continues.
func (p *Proc) Yield() { p.Sleep(0) }
