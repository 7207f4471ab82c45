// Package sim is a fixture mirroring the kernel's yield-point signatures.
package sim

type Proc struct{}

func (p *Proc) Sleep(d int64) {}

func (p *Proc) Yield() {}

type Kernel struct{}

func (k *Kernel) Run() int { return 0 }

func (k *Kernel) RunUntil(d int64) int { return 0 }

type Queue struct{}

func (q *Queue) Get(p *Proc, timeout int64) (int, bool) { return 0, false }

type ShardGroup struct{}

func (g *ShardGroup) Run() int { return 0 }

func (g *ShardGroup) RunUntil(d int64) int { return 0 }

func (g *ShardGroup) Send(from, to int, at int64, fn func()) {}
