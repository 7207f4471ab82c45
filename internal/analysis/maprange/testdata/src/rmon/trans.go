package rmon

import (
	"core"
)

// store is one hop above Database.Record.
func store(db *core.Database, v int) {
	db.Record(core.Measurement{V: v})
}

// persist is two hops above it.
func persist(db *core.Database, v int) {
	store(db, v)
}

func flushAll(db *core.Database, m map[string]int) {
	for _, v := range m { // want `map iteration order is random, but this loop body calls store`
		store(db, v)
	}
}

func flushChain(db *core.Database, m map[string]int) {
	for _, v := range m { // want `map iteration order is random, but this loop body calls persist`
		persist(db, v)
	}
}

// reads only reads, yet it is flagged: the rule admits builtins and
// conversions alone, and Series is neither.
func reads(db *core.Database, m map[string]int) int {
	n := 0
	for range m { // want `map iteration order is random, but this loop body calls db\.Series`
		n += db.Series()
	}
	return n
}
