package mib

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// oracleTree is the tree as it was before lookups were indexed: every
// registration in one stable-sorted list, a table a function that
// enumerates its entries, Get and Next a linear scan. What that scan
// answered where registrations overlap is the contract Tree keeps.
type oracleTree struct {
	regs []oracleReg
}

type oracleReg struct {
	oid    OID
	scalar *Value
	enum   func() []entry
}

func (o *oracleTree) sorted() []oracleReg {
	sort.SliceStable(o.regs, func(i, j int) bool { return o.regs[i].oid.Cmp(o.regs[j].oid) < 0 })
	return o.regs
}

func (o *oracleTree) Get(oid OID) (Value, bool) {
	for _, r := range o.sorted() {
		if r.scalar != nil {
			if r.oid.Cmp(oid) == 0 {
				return *r.scalar, true
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

func (o *oracleTree) Next(oid OID) (OID, Value, bool) {
	for _, r := range o.sorted() {
		if r.scalar != nil {
			if r.oid.Cmp(oid) > 0 {
				return r.oid, *r.scalar, true
			}
			continue
		}
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

// TestPropertyNextMatchesOracle checks the tree against its oracles: GetNext
// over arbitrary scalar registrations against a sorted slice, and Get, Next
// and a walk over random mixes of scalars and tables against the linear scan.
func TestPropertyNextMatchesOracle(t *testing.T) {
	t.Run("scalars", scalarsMatchSortedSlice)
	t.Run("mixed", mixedTreeMatchesScan)
}

func scalarsMatchSortedSlice(t *testing.T) {
	f := func(rawOIDs [][]uint32, rawQueries [][]uint32) bool {
		tr := NewTree()
		var registered []OID
		seen := map[string]bool{}
		for _, raw := range rawOIDs {
			if len(raw) == 0 {
				continue
			}
			oid := OID(raw).Clone()
			if seen[oid.String()] {
				continue
			}
			seen[oid.String()] = true
			registered = append(registered, oid)
			tr.RegisterConst(oid, Int(1))
		}
		sort.Slice(registered, func(i, j int) bool {
			return registered[i].Cmp(registered[j]) < 0
		})
		oracle := func(q OID) (OID, bool) {
			for _, r := range registered {
				if r.Cmp(q) > 0 {
					return r, true
				}
			}
			return nil, false
		}
		queries := make([]OID, 0, len(rawQueries)+len(registered))
		for _, raw := range rawQueries {
			queries = append(queries, OID(raw))
		}
		// Also query at each registered point and just before/after.
		for _, r := range registered {
			queries = append(queries, r, r.Append(0))
			if len(r) > 1 {
				queries = append(queries, r[:len(r)-1])
			}
		}
		for _, q := range queries {
			wantOID, wantOK := oracle(q)
			gotOID, _, gotOK := tr.Next(q)
			if wantOK != gotOK {
				return false
			}
			if wantOK && wantOID.Cmp(gotOID) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// mixedTable is one random table of mixedTreeMatchesScan:
// its rows are redrawn between queries.
type mixedTable struct {
	prefix OID
	cols   []uint32
	pool   []OID // every index the table may ever show, ascending
	rows   []OID // the ones showing now
	serial int   // bumped at every redraw, so a stale cell is a wrong value
}

func (m *mixedTable) redraw(rng *rand.Rand) {
	m.rows = m.rows[:0]
	for _, idx := range m.pool {
		if rng.Intn(3) > 0 {
			m.rows = append(m.rows, idx)
		}
	}
	m.serial++
}

func (m *mixedTable) cell(arc uint32, row OID) Value {
	return Str(fmt.Sprintf("%s.%d%s#%d", m.prefix, arc, row, m.serial))
}

func (m *mixedTable) entries() []entry {
	var out []entry
	for _, arc := range m.cols {
		for _, row := range m.rows {
			out = append(out, entry{OID: m.prefix.Append(arc).Append(row...), Value: m.cell(arc, row)})
		}
	}
	return out
}

// ascending draws up to n distinct values below limit, sorted.
func ascending(rng *rand.Rand, n int, limit uint32) []uint32 {
	set := map[uint32]bool{}
	for i := rng.Intn(n + 1); i > 0; i-- {
		set[uint32(rng.Intn(int(limit)))] = true
	}
	out := make([]uint32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mixedTreeMatchesScan registers random mixes of scalars and tables over a
// three-arc alphabet, so that prefixes nest and collide — a table inside a
// table's prefix, a scalar inside one, at one, the same OID registered
// twice, tables with no columns or no rows — and requires Get, Next and
// a walk to answer as the linear scan did, while rows appear and vanish
// between queries.
func mixedTreeMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arcs := func(n int) OID {
			o := make(OID, 1+rng.Intn(n))
			for i := range o {
				o[i] = uint32(rng.Intn(3))
			}
			return o
		}
		tr, oracle := NewTree(), &oracleTree{}
		var tables []*mixedTable
		var points []OID
		for n := 2 + rng.Intn(8); n > 0; n-- {
			oid := arcs(4)
			if len(points) > 0 && rng.Intn(4) == 0 {
				oid = points[rng.Intn(len(points))] // on top of an earlier registration
			}
			points = append(points, oid)
			if rng.Intn(2) == 0 {
				v := Int(int64(len(points)))
				tr.RegisterConst(oid, v)
				oracle.regs = append(oracle.regs, oracleReg{oid: oid, scalar: &v})
				continue
			}
			m := &mixedTable{prefix: oid, cols: ascending(rng, 3, 3)}
			for _, a := range ascending(rng, 4, 3) {
				m.pool = append(m.pool, OID{a})
				if rng.Intn(2) == 0 {
					m.pool = append(m.pool, OID{a, uint32(rng.Intn(3))}) // a longer index sorts after its prefix
				}
			}
			tables = append(tables, m)
			registerRows(tr, oid, m.cols, func() []OID { return m.rows }, m.cell)
			oracle.regs = append(oracle.regs, oracleReg{oid: oid, enum: m.entries})
		}
		for round := 0; round < 4; round++ {
			for _, m := range tables {
				m.redraw(rng)
				points = append(points, m.prefix)
				for _, e := range m.entries() {
					points = append(points, e.OID)
				}
			}
			queries := []OID{nil}
			for _, p := range points {
				queries = append(queries, p, p.Append(0), p.Append(2, 2), p[:len(p)-1])
			}
			for i := 0; i < 20; i++ {
				queries = append(queries, arcs(7))
			}
			for _, q := range queries {
				wantV, wantOK := oracle.Get(q)
				if gotV, gotOK := tr.Get(q); gotOK != wantOK || gotV.String() != wantV.String() {
					t.Fatalf("seed %d: Get(%s) = %v, %v; the scan answers %v, %v", seed, q, gotV, gotOK, wantV, wantOK)
				}
				wantOID, wantV, wantOK := oracle.Next(q)
				gotOID, gotV, gotOK := tr.Next(q)
				if gotOK != wantOK || gotOID.Cmp(wantOID) != 0 || gotV.String() != wantV.String() {
					t.Fatalf("seed %d: Next(%s) = %s %v, %v; the scan answers %s %v, %v", seed, q, gotOID, gotV, gotOK, wantOID, wantV, wantOK)
				}
			}
			// A walk is Next iterated: it must list what the scan lists, which
			// where nothing overlaps is every entry there is.
			var want []entry
			for cur := (OID{}); ; {
				oid, v, ok := oracle.Next(cur)
				if !ok {
					break
				}
				want = append(want, entry{oid, v})
				cur = oid
			}
			got := walk(tr, nil)
			if len(got) != len(want) {
				t.Fatalf("seed %d: walk lists %d entries, the scan %d", seed, len(got), len(want))
			}
			for i := range want {
				if got[i].OID.Cmp(want[i].OID) != 0 || got[i].Value.String() != want[i].Value.String() {
					t.Fatalf("seed %d: walk entry %d = %s %v, the scan %s %v", seed, i, got[i].OID, got[i].Value, want[i].OID, want[i].Value)
				}
			}
		}
	}
}

// TestWalkListsEveryEntry: scalars and tables whose prefixes do not
// overlap, rows coming and going — a walk returns every entry, in order.
func TestWalkListsEveryEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTree()
	var tables []*mixedTable
	var scalars []entry
	for i := uint32(1); i <= 6; i++ {
		if i%2 == 0 {
			e := entry{OID{1, i, 0}, Int(int64(i))}
			scalars = append(scalars, e)
			tr.RegisterConst(e.OID, e.Value)
			continue
		}
		m := &mixedTable{prefix: OID{1, i}, cols: []uint32{1, 2, 5}, pool: []OID{{1}, {1, 1}, {2}, {3, 0, 0}}}
		tables = append(tables, m)
		registerRows(tr, m.prefix, m.cols, func() []OID { return m.rows }, m.cell)
	}
	for round := 0; round < 20; round++ {
		want := append([]entry(nil), scalars...)
		for _, m := range tables {
			m.redraw(rng)
			want = append(want, m.entries()...)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].OID.Cmp(want[j].OID) < 0 })
		got := walk(tr, OID{1})
		if len(got) != len(want) {
			t.Fatalf("round %d: walk lists %d entries of %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].OID.Cmp(want[i].OID) != 0 || got[i].Value.String() != want[i].Value.String() {
				t.Fatalf("round %d: entry %d = %s, want %s", round, i, got[i].OID, want[i].OID)
			}
		}
	}
}

// TestPropertyWalkReturnsAllUnderPrefix: walking any prefix returns exactly
// the registered OIDs under it, in order.
func TestPropertyWalkReturnsAllUnderPrefix(t *testing.T) {
	f := func(suffixes []uint8) bool {
		tr := NewTree()
		base := MustOID("1.3.6.1")
		uniq := map[uint32]bool{}
		for _, s := range suffixes {
			uniq[uint32(s)] = true
		}
		var want []OID
		for s := range uniq {
			oid := base.Append(s, 0)
			tr.RegisterConst(oid, Int(int64(s)))
			want = append(want, oid)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Cmp(want[j]) < 0 })
		got := walk(tr, base)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].OID.Cmp(want[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
