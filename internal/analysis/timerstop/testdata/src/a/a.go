package a

import "sim"

func bad(k *sim.Kernel) {
	k.Every(10, func() {})     // want `Timer returned by Every is discarded`
	_ = k.Every(10, func() {}) // want `Timer returned by Every is discarded`
}

func good(k *sim.Kernel) {
	t := k.Every(10, func() {})
	defer t.Stop()
	k.After(5, func() {})          // one-shot timers are fire-and-forget: fine
	k.AfterArg(5, func(any) {}, k) // so is the arg-carrying form
	//lint:allow leaktimer process-lifetime ticker
	k.Every(10, func() {})
	k.Every(10, func() {}) //lint:allow leaktimer same-line form
}

type notsim struct{}

// Every here returns an int, not a sim.Timer: out of scope.
func (notsim) Every(period int64) int { return 0 }

func alsoGood(n notsim) { n.Every(1) }

// director mirrors the DirectorBase watchdog shape: a wrapper that starts a
// periodic sweeper and hands the Every timer to its caller to own.
type director struct{ k *sim.Kernel }

func (d director) StartSenescenceWatchdog(every, ttl int64) sim.Timer {
	return d.k.Every(every, func() {})
}

// startProbeTicker mirrors a breaker's half-open probe ticker.
func startProbeTicker(k *sim.Kernel) sim.Timer {
	return k.Every(1, func() {})
}

func badWatchdog(d director, k *sim.Kernel) {
	d.StartSenescenceWatchdog(500, 2000)     // want `Timer returned by StartSenescenceWatchdog is discarded`
	_ = d.StartSenescenceWatchdog(500, 2000) // want `Timer returned by StartSenescenceWatchdog is discarded`
	startProbeTicker(k)                      // want `Timer returned by startProbeTicker is discarded`
}

func goodWatchdog(d director, k *sim.Kernel) {
	wd := d.StartSenescenceWatchdog(500, 2000)
	defer wd.Stop()
	//lint:allow leaktimer run-lifetime watchdog, never stopped by design
	d.StartSenescenceWatchdog(500, 2000)
	k.After(5, func() {}) // one-shot: exempt by name
}
