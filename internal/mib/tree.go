package mib

import (
	"fmt"
	"sort"
)

// Entry is one (OID, value) binding, the unit of tree traversal.
type Entry struct {
	OID   OID
	Value Value
}

// registration is either a scalar or an enumerable subtree.
type registration struct {
	oid    OID // scalar OID or subtree prefix
	scalar func() Value
	setter func(Value) error
	enum   func() []Entry // subtree rows in OID order
}

// Tree is a management information base: a set of scalar bindings and
// dynamic subtrees ordered for lexicographic traversal. Registrations must
// happen before traffic is served; reads may happen at any time and always
// observe live values.
type Tree struct {
	regs   []registration
	sorted bool
}

// NewTree returns an empty MIB tree.
func NewTree() *Tree { return &Tree{} }

// RegisterScalar binds a read function at an exact OID (conventionally
// ending in .0).
func (t *Tree) RegisterScalar(oid OID, get func() Value) {
	t.regs = append(t.regs, registration{oid: oid.Clone(), scalar: get})
	t.sorted = false
}

// RegisterWritableScalar binds read and write functions at an exact OID.
func (t *Tree) RegisterWritableScalar(oid OID, get func() Value, set func(Value) error) {
	t.regs = append(t.regs, registration{oid: oid.Clone(), scalar: get, setter: set})
	t.sorted = false
}

// RegisterConst binds a fixed value at an exact OID.
func (t *Tree) RegisterConst(oid OID, v Value) {
	t.RegisterScalar(oid, func() Value { return v })
}

// RegisterSubtree binds an enumerator under a prefix. The enumerator must
// return entries whose OIDs all start with the prefix, in ascending order;
// it is invoked per query, so rows may come and go between queries (as
// table rows do on a real agent).
func (t *Tree) RegisterSubtree(prefix OID, enum func() []Entry) {
	t.regs = append(t.regs, registration{oid: prefix.Clone(), enum: enum})
	t.sorted = false
}

func (t *Tree) ensureSorted() {
	if t.sorted {
		return
	}
	sort.SliceStable(t.regs, func(i, j int) bool {
		return t.regs[i].oid.Cmp(t.regs[j].oid) < 0
	})
	t.sorted = true
}

// Get returns the value bound exactly at oid.
func (t *Tree) Get(oid OID) (Value, bool) {
	t.ensureSorted()
	for i := range t.regs {
		r := &t.regs[i]
		if r.scalar != nil {
			if r.oid.Cmp(oid) == 0 {
				return r.scalar(), true
			}
			continue
		}
		if !oid.HasPrefix(r.oid) {
			continue
		}
		for _, e := range r.enum() {
			if e.OID.Cmp(oid) == 0 {
				return e.Value, true
			}
		}
	}
	return Value{}, false
}

// Set writes a value at oid; it fails for unknown or read-only objects.
func (t *Tree) Set(oid OID, v Value) error {
	t.ensureSorted()
	for i := range t.regs {
		r := &t.regs[i]
		if r.scalar != nil && r.oid.Cmp(oid) == 0 {
			if r.setter == nil {
				return fmt.Errorf("mib: %s is read-only", oid)
			}
			return r.setter(v)
		}
	}
	return fmt.Errorf("mib: no such object %s", oid)
}

// Next returns the first bound OID strictly greater than oid, with its
// value — the GetNext primitive.
func (t *Tree) Next(oid OID) (OID, Value, bool) {
	t.ensureSorted()
	for i := range t.regs {
		r := &t.regs[i]
		if r.scalar != nil {
			if r.oid.Cmp(oid) > 0 {
				return r.oid, r.scalar(), true
			}
			continue
		}
		// A subtree can hold a successor of oid only when the whole
		// subtree sorts after oid, or oid lies inside the subtree.
		if r.oid.Cmp(oid) > 0 || oid.HasPrefix(r.oid) {
			for _, e := range r.enum() {
				if e.OID.Cmp(oid) > 0 {
					return e.OID, e.Value, true
				}
			}
		}
	}
	return nil, Value{}, false
}

// Walk returns every entry under prefix in traversal order.
//
//lint:allow unusedexport test-pinned by TestTreeWalkPrefix, TestPropertyWalkReturnsAllUnderPrefix and the rmon MIB-exposure tests; retire together
func (t *Tree) Walk(prefix OID) []Entry {
	var out []Entry
	cur := prefix.Clone()
	for {
		oid, v, ok := t.Next(cur)
		if !ok || !oid.HasPrefix(prefix) {
			return out
		}
		out = append(out, Entry{OID: oid, Value: v})
		cur = oid
	}
}
