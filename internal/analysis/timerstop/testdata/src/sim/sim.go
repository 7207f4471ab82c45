// Package sim is a fixture mirroring the kernel's timer API shapes.
package sim

type Timer struct{}

func (t Timer) Stop() bool { return false }

type Kernel struct{}

func (k *Kernel) Every(period int64, fn func()) Timer { return Timer{} }

func (k *Kernel) After(d int64, fn func()) Timer { return Timer{} }

func (k *Kernel) AfterArg(d int64, fn func(any), arg any) Timer { return Timer{} }
