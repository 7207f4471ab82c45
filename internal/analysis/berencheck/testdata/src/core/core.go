// Package core is a fixture standing in for a package outside the checked
// set: its errors are not this pass's business.
package core

type Database struct{}

func (db *Database) FlushResults() error { return nil }

func (db *Database) Summarize() []int { return nil }
