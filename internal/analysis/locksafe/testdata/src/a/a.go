package a

import (
	"sync"

	"sim"
)

type server struct {
	mu sync.Mutex
	sync.RWMutex
	n int
}

func bad(s *server, p *sim.Proc) {
	s.mu.Lock()
	p.Sleep(10) // want `sim yield point Sleep called while holding s\.mu`
	s.mu.Unlock()
}

func badDefer(s *server, p *sim.Proc, q *sim.Queue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := q.Get(p, 5); ok { // want `sim yield point Get called while holding s\.mu`
		s.n++
	}
}

func badEmbedded(s *server, k *sim.Kernel) {
	s.Lock()
	k.Run() // want `sim yield point Run called while holding s:`
	s.Unlock()
}

func badLoop(s *server, p *sim.Proc) {
	s.mu.Lock()
	for i := 0; i < 3; i++ {
		p.Yield() // want `sim yield point Yield called while holding s\.mu`
	}
	s.mu.Unlock()
}

func badShardBarrier(s *server, g *sim.ShardGroup) {
	s.mu.Lock()
	g.Run() // want `sim yield point Run called while holding s\.mu`
	s.mu.Unlock()
}

func badShardRun(s *server, g *sim.ShardGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g.RunUntil(100) // want `sim yield point RunUntil called while holding s\.mu`
}

func goodShardSend(s *server, g *sim.ShardGroup) {
	s.mu.Lock()
	// Cross-shard Send only stages the event for the next barrier; it never
	// re-enters the scheduler, so holding a lock across it is fine.
	g.Send(0, 1, 10, func() {})
	s.mu.Unlock()
}

func good(s *server, p *sim.Proc) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	p.Sleep(10) // lock already released: fine
}

func goodClosure(s *server, p *sim.Proc) {
	s.mu.Lock()
	fn := func() { p.Yield() } // body runs later, not under the lock
	_ = fn
	s.mu.Unlock()
}

func allowed(s *server, p *sim.Proc) {
	s.mu.Lock()
	//lint:allow lockyield single-threaded bootstrap phase
	p.Sleep(10)
	s.mu.Unlock()
}
