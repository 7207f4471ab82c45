package sim

import (
	"errors"
	"time"
)

// errKilled is the sentinel panic value used to unwind a Proc goroutine when
// the kernel is closed.
var errKilled = errors.New("sim: proc killed")

// Proc is a simulated sequential process. Its methods must only be called
// from within the process's own function.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	done   bool
	killed bool
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// park yields control back to the kernel until some event resumes the proc.
//
//perf:noalloc
func (p *Proc) park() {
	p.k.parked <- struct{}{}
	<-p.resume
	if p.killed {
		panic(errKilled)
	}
}

// Sleep suspends the proc for d of virtual time. Non-positive durations
// yield the proc and let other events at the same timestamp run first.
//
//perf:noalloc
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
