package mib

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Column is one column of a table over rows of type R: its arc under the
// table's prefix and how to read it off a row.
type Column[R any] struct {
	Arc uint32
	Get func(R) Value
}

// table is a table as RegisterTable describes it.
type table[R any] struct {
	cols  []Column[R]
	rows  func() []R
	index func(dst OID, row R) OID
}

// tableOf is a table[R] of any R, as the tree uses it: cell is the cell in
// column arc of the row indexed index; cellAfter the first cell, column by
// column, whose OID past prefix is above rest, with its whole OID.
type tableOf interface {
	cell(t *Tree, arc uint32, index OID) (Value, bool)
	cellAfter(t *Tree, prefix, rest OID) (OID, Value, bool)
}

func (tb *table[R]) column(arc uint32) (int, bool) {
	return slices.BinarySearchFunc(tb.cols, arc, func(c Column[R], arc uint32) int { return cmp.Compare(c.Arc, arc) })
}

// row finds index among rows, or where it would go; t.idx is its scratch.
func (tb *table[R]) row(t *Tree, rows []R, index OID) (int, bool) {
	return slices.BinarySearchFunc(rows, index, func(r R, index OID) int {
		t.idx = tb.index(t.idx[:0], r)
		return t.idx.Cmp(index)
	})
}

func (tb *table[R]) cell(t *Tree, arc uint32, index OID) (Value, bool) {
	if c, ok := tb.column(arc); ok {
		rows := tb.rows()
		if i, ok := tb.row(t, rows, index); ok {
			return tb.cols[c].Get(rows[i]), true
		}
	}
	return Value{}, false
}

func (tb *table[R]) cellAfter(t *Tree, prefix, rest OID) (OID, Value, bool) {
	rows := tb.rows()
	c, i := 0, 0
	if len(rest) > 0 {
		var same bool
		if c, same = tb.column(rest[0]); same {
			if i, same = tb.row(t, rows, rest[1:]); same {
				i++
			}
		}
	}
	if i == len(rows) { // past the column's last row, or no rows at all
		c, i = c+1, 0
	}
	if c >= len(tb.cols) || len(rows) == 0 {
		return nil, Value{}, false
	}
	t.idx = tb.index(t.idx[:0], rows[i])
	oid := make(OID, 0, len(prefix)+1+len(t.idx))
	oid = append(append(append(oid, prefix...), tb.cols[c].Arc), t.idx...)
	return oid, tb.cols[c].Get(rows[i]), true
}

// registration is either a scalar or a table.
type registration struct {
	oid    OID // scalar OID or table prefix
	scalar func() Value
	setter func(Value) error
	table  tableOf
}

// Tree is a management information base: a set of scalar bindings and
// tables ordered for lexicographic traversal. Registrations must happen
// before traffic is served; reads may happen at any time and always observe
// live values. A Tree is not safe for concurrent use. Where registrations
// overlap, lookups answer in registration order stably sorted by OID: a
// table answers before a scalar bound under its prefix, and of two scalars
// at one OID the first registered wins.
type Tree struct {
	regs   []registration
	sorted bool
	tables []int // positions in regs of the tables, ascending; valid while sorted
	idx    OID   // scratch for the row index under comparison
}

// NewTree returns an empty MIB tree.
func NewTree() *Tree {
	// A node view registers 21 objects and a probe 7 more: no regrowing.
	return &Tree{regs: make([]registration, 0, 32)}
}

// RegisterScalar binds a read function at an exact OID (conventionally
// ending in .0). The tree keeps oid; the caller must not modify it after.
func (t *Tree) RegisterScalar(oid OID, get func() Value) {
	t.RegisterWritableScalar(oid, get, nil)
}

// RegisterWritableScalar binds read and write functions at an exact OID.
func (t *Tree) RegisterWritableScalar(oid OID, get func() Value, set func(Value) error) {
	t.regs = append(t.regs, registration{oid: oid, scalar: get, setter: set})
	t.sorted = false
}

// RegisterConst binds a fixed value at an exact OID.
func (t *Tree) RegisterConst(oid OID, v Value) {
	t.RegisterScalar(oid, func() Value { return v })
}

// RegisterTable binds a table under prefix, which the tree keeps: the cell
// in column c of the row indexed i is bound at prefix.c.i, and cells order
// column by column, the order GetNext walks them in. cols ascend by arc.
// rows returns the rows there are now in ascending order of index; the tree
// calls it once per query, so rows may come and go between queries, and does
// not keep the slice, so a table whose rows are unchanged may return the one
// it returned before. index appends a row's index arcs to dst.
func RegisterTable[R any](t *Tree, prefix OID, cols []Column[R], rows func() []R, index func(dst OID, row R) OID) {
	t.regs = append(t.regs, registration{oid: prefix, table: &table[R]{cols, rows, index}})
	t.sorted = false
}

func (t *Tree) sort() {
	sort.SliceStable(t.regs, func(i, j int) bool {
		return t.regs[i].oid.Cmp(t.regs[j].oid) < 0
	})
	t.tables = t.tables[:0]
	for i := range t.regs {
		if t.regs[i].table != nil {
			t.tables = append(t.tables, i)
		}
	}
	t.sorted = true
}

// find returns the position of the first registration not below oid.
func (t *Tree) find(oid OID) int {
	lo, hi := 0, len(t.regs)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); t.regs[mid].oid.Cmp(oid) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value bound exactly at oid.
func (t *Tree) Get(oid OID) (Value, bool) {
	if !t.sorted {
		t.sort()
	}
	// A table's prefix sorts before every OID under it, so the tables that
	// could hold oid all come before the scalars bound at it.
	for _, ti := range t.tables {
		r := &t.regs[ti]
		if len(oid) > len(r.oid) && oid.HasPrefix(r.oid) {
			if v, ok := r.table.cell(t, oid[len(r.oid)], oid[len(r.oid)+1:]); ok {
				return v, true
			}
		}
	}
	for i := t.find(oid); i < len(t.regs) && t.regs[i].oid.Cmp(oid) == 0; i++ {
		if get := t.regs[i].scalar; get != nil {
			return get(), true
		}
	}
	return Value{}, false
}

// Set writes a value at oid; it fails for unknown or read-only objects.
func (t *Tree) Set(oid OID, v Value) error {
	if !t.sorted {
		t.sort()
	}
	for i := t.find(oid); i < len(t.regs) && t.regs[i].oid.Cmp(oid) == 0; i++ {
		if r := &t.regs[i]; r.setter != nil {
			return r.setter(v)
		} else if r.scalar != nil {
			return fmt.Errorf("mib: %s is read-only", oid)
		}
	}
	return fmt.Errorf("mib: no such object %s", oid)
}

// Next returns the first bound OID strictly greater than oid, with its
// value — the GetNext primitive. A scalar's OID is the one it was registered
// with; a cell's is the caller's to keep.
func (t *Tree) Next(oid OID) (OID, Value, bool) {
	if !t.sorted {
		t.sort()
	}
	// Registrations at or below oid hold a successor only if they are
	// tables oid lies inside; everything above oid is one.
	for _, ti := range t.tables {
		if r := &t.regs[ti]; oid.HasPrefix(r.oid) {
			if next, v, ok := r.table.cellAfter(t, r.oid, oid[len(r.oid):]); ok {
				return next, v, true
			}
		}
	}
	i := t.find(oid)
	for i < len(t.regs) && t.regs[i].oid.Cmp(oid) == 0 {
		i++
	}
	for ; i < len(t.regs); i++ {
		r := &t.regs[i]
		if r.scalar != nil {
			return r.oid, r.scalar(), true
		}
		if next, v, ok := r.table.cellAfter(t, r.oid, nil); ok {
			return next, v, true
		}
	}
	return nil, Value{}, false
}
