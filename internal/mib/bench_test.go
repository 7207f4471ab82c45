package mib

import (
	"fmt"
	"testing"
)

func benchTree(scalars, rows int) *Tree {
	tr := NewTree()
	for i := 0; i < scalars; i++ {
		tr.RegisterConst(MustOID(fmt.Sprintf("1.3.6.1.2.1.1.%d.0", i+1)), Int(int64(i)))
	}
	var index []OID
	for i := 0; i < rows; i++ {
		index = append(index, OID{uint32(i + 1)})
	}
	registerRows(tr, IfEntry, []uint32{1}, func() []OID { return index },
		func(arc uint32, row OID) Value { return Int(int64(row[0]) - 1) })
	return tr
}

func BenchmarkTreeGetScalar(b *testing.B) {
	tr := benchTree(16, 16)
	oid := MustOID("1.3.6.1.2.1.1.8.0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Get(oid); !ok {
			b.Fatal("missing")
		}
	}
}

func BenchmarkTreeNext(b *testing.B) {
	tr := benchTree(16, 16)
	oid := MustOID("1.3.6.1.2.1.1.1.0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tr.Next(oid); !ok {
			b.Fatal("no successor")
		}
	}
}

func BenchmarkTreeWalk64Rows(b *testing.B) {
	tr := benchTree(8, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(walk(tr, IfEntry)) != 64 {
			b.Fatal("short walk")
		}
	}
}

func BenchmarkOIDCmp(b *testing.B) {
	x := MustOID("1.3.6.1.2.1.2.2.1.10.7")
	y := MustOID("1.3.6.1.2.1.2.2.1.10.8")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if x.Cmp(y) != -1 {
			b.Fatal("cmp broke")
		}
	}
}
