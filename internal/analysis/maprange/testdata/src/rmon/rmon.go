package rmon

import (
	"sort"

	"sim"
)

func direct(k *sim.Kernel, m map[string]func()) {
	for _, fn := range m { // want `map iteration order is random, but this loop body calls k\.At`
		k.At(10, fn)
	}
}

func directSend(g *sim.ShardGroup, m map[int]func()) {
	for to, fn := range m { // want `map iteration order is random, but this loop body calls g\.Send`
		g.Send(0, to, 10, fn)
	}
}

// funcValues calls each stored func in map order: a dynamic call no call
// graph resolves.
func funcValues(m map[string]func()) {
	for _, fn := range m { // want `map iteration order is random, but this loop body calls fn`
		fn()
	}
}

// Scheduler is an exported interface: any type anywhere may satisfy it.
type Scheduler interface {
	Schedule(v int)
}

type kernelScheduler struct{ k *sim.Kernel }

func (s kernelScheduler) Schedule(v int) { s.k.After(int64(v), nil) }

func throughInterface(s Scheduler, m map[string]int) {
	for _, v := range m { // want `map iteration order is random, but this loop body calls s\.Schedule`
		s.Schedule(v)
	}
}

func sorted(k *sim.Kernel, m map[string]func()) {
	keys := make([]string, 0, len(m))
	for key := range m { // body only collects: fine
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys { // slice range: not checked
		k.At(10, m[key])
	}
}

func closureBuilder(k *sim.Kernel, m map[string]int) map[string]func() {
	out := make(map[string]func(), len(m))
	for key, v := range m { // the only call sites are inside the stored closure: fine
		v := v
		out[key] = func() { k.At(int64(v), nil) }
	}
	return out
}

func pureSum(m map[string]int) int {
	total := 0
	for _, v := range m { // no call at all: fine
		total += v
	}
	return total
}

func builtinsAndConversions(m map[string]int32) (int64, []string) {
	var total int64
	var long []string
	for key, v := range m { // builtins and conversions only: fine
		total += int64(v)
		if len(key) > 3 {
			long = append(long, key)
		}
		delete(m, key)
	}
	return total, long
}

func allowedSameLine(k *sim.Kernel, m map[string]int) {
	for _, v := range m { //lint:allow maporder one event per key at distinct times, heap order restores determinism
		k.At(int64(v), nil)
	}
}

func allowedAboveLine(k *sim.Kernel, m map[string]int) {
	//lint:allow maporder effects commute: counters only
	for _, v := range m {
		k.After(int64(v), nil)
	}
}
