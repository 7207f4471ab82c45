package asn1ber

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// The encoder and OID parser this package had before it encoded in one
// buffer: nested slices and a fresh arc list per OID. They stay as the
// oracles the in-place forms are held to, byte for byte.

func oracleAppendOID(dst []byte, arcs []uint32) []byte {
	var content []byte
	var first, second uint32
	if len(arcs) > 0 {
		first = arcs[0]
	}
	if len(arcs) > 1 {
		second = arcs[1]
	}
	content = appendBase128(content, uint64(first)*40+uint64(second))
	for _, arc := range arcs[min(2, len(arcs)):] {
		content = appendBase128(content, uint64(arc))
	}
	return AppendTLV(dst, TagOID, content)
}

func oracleParseOID(content []byte) ([]uint32, error) {
	if len(content) == 0 {
		return nil, errors.New("asn1ber: empty OID")
	}
	const maxSubID = 2*40 + 0xffffffff
	var arcs []uint32
	var v uint64
	first := true
	for i, b := range content {
		v = v<<7 | uint64(b&0x7f)
		if v > maxSubID {
			return nil, errOIDArcOverflow
		}
		if b&0x80 != 0 {
			if i == len(content)-1 {
				return nil, ErrTruncated
			}
			continue
		}
		if first {
			x := v / 40
			if x > 2 {
				x = 2
			}
			arcs = append(arcs, uint32(x), uint32(v-x*40))
			first = false
		} else {
			if v > 0xffffffff {
				return nil, errOIDArcOverflow
			}
			arcs = append(arcs, uint32(v))
		}
		v = 0
	}
	return arcs, nil
}

// checkOIDAgainstOracle holds ParseOID, AppendArcs into a used arena, and
// AppendOID to the oracles for one content string.
func checkOIDAgainstOracle(t *testing.T, content []byte) {
	t.Helper()
	want, wantErr := oracleParseOID(content)
	got, err := ParseOID(content)
	if (err == nil) != (wantErr == nil) || !slices.Equal(got, want) {
		t.Fatalf("ParseOID(% x) = %v, %v; oracle %v, %v", content, got, err, want, wantErr)
	}
	arena := []uint32{7, 7, 7}
	grown, err := AppendArcs(arena, content)
	if (err == nil) != (wantErr == nil) || !slices.Equal(grown[:3], arena) {
		t.Fatalf("AppendArcs(% x) = %v, %v; oracle err %v", content, grown, err, wantErr)
	}
	if err != nil {
		if len(grown) != 3 {
			t.Fatalf("AppendArcs(% x) failed and left %d arcs behind", content, len(grown)-3)
		}
		return
	}
	if !slices.Equal(grown[3:], want) {
		t.Fatalf("AppendArcs(% x) appended %v, oracle %v", content, grown[3:], want)
	}
	prefix := []byte{0xde, 0xad}
	if b, o := AppendOID(slices.Clone(prefix), want), oracleAppendOID(slices.Clone(prefix), want); !bytes.Equal(b, o) {
		t.Fatalf("AppendOID(%v) = % x, oracle % x", want, b, o)
	}
}

func TestOIDMatchesOracle(t *testing.T) {
	long := make([]uint32, 200) // content past 127 octets: EndTLV's long form
	for i := range long {
		long[i] = uint32(i) * 1000
	}
	for _, arcs := range [][]uint32{
		nil, {1}, {1, 3}, {2, 0xffffffff}, {1, 3, 6, 1, 2, 1, 2, 2, 1, 10, 1},
		{0, 0}, {2, 999, 0x7f, 0x80, 0x3fff, 0x4000, 0xffffffff}, long,
	} {
		b := oracleAppendOID(nil, arcs)
		content, err := NewReader(b).ReadExpect(TagOID)
		if err != nil {
			t.Fatal(err)
		}
		checkOIDAgainstOracle(t, content)
	}
	for _, content := range [][]byte{{}, {0x80}, {0x2b, 0x81}, {0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, {0x2b, 0x90, 0x80, 0x80, 0x80, 0x00}} {
		checkOIDAgainstOracle(t, content)
	}
}

// boundaryLengths are the content lengths on either side of each change in
// the length field's own size.
var boundaryLengths = []int{0, 1, 127, 128, 255, 256, 65535, 65536}

// TestEndTLVMatchesAppendTLV closes a TLV of every boundary length at every
// depth of a four-deep nest, with bytes before and after it, against the
// same nest built inside out from whole contents.
func TestEndTLVMatchesAppendTLV(t *testing.T) {
	const depth = 4
	for _, n := range boundaryLengths {
		for level := 0; level < depth; level++ {
			// The TLV at level holds n octets in all; those above it a
			// leading NULL and whatever that comes to.
			var inPlace []byte
			inPlace = append(inPlace, 0xde, 0xad)
			var starts [depth]int
			for l := 0; l <= level; l++ {
				inPlace, starts[l] = BeginTLV(inPlace, TagSequence)
				if l < level {
					inPlace = AppendNull(inPlace)
				}
			}
			payload := bytes.Repeat([]byte{byte(n)}, n)
			inPlace = append(inPlace, payload...)
			for l := level; l >= 0; l-- {
				inPlace = EndTLV(inPlace, starts[l])
				inPlace = append(inPlace, byte(l)) // a sibling after it must not move
			}

			nested := payload
			for l := level; l >= 0; l-- {
				nested = AppendTLV(nil, TagSequence, nested)
				nested = append(nested, byte(l))
				if l > 0 {
					nested = append(AppendNull(nil), nested...)
				}
			}
			nested = append([]byte{0xde, 0xad}, nested...)
			if !bytes.Equal(inPlace, nested) {
				t.Fatalf("length %d at depth %d: in place %d octets, nested %d; heads % x vs % x",
					n, level, len(inPlace), len(nested), inPlace[:min(16, len(inPlace))], nested[:min(16, len(nested))])
			}
		}
	}
}

func TestParseIntRejectsWhatDoesNotFit(t *testing.T) {
	for _, tc := range []struct {
		content []byte
		want    int64
		ok      bool
	}{
		{[]byte{0x05}, 5, true},
		{[]byte{0x00, 0x00, 0x00, 0x05}, 5, true},                                       // not minimal, still 5
		{[]byte{0xff, 0xff, 0xfb}, -5, true},                                            // likewise
		{[]byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 1<<63 - 1, true},       // the ends of int64
		{[]byte{0x80, 0, 0, 0, 0, 0, 0, 0}, -1 << 63, true},                             //
		{[]byte{0x00, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 1<<63 - 1, true}, // nine octets, the ninth pure sign
		{[]byte{0xff, 0x80, 0, 0, 0, 0, 0, 0, 0}, -1 << 63, true},                       //
		{[]byte{0x01, 0, 0, 0, 0, 0, 0, 0, 0}, 0, false},                                // 2^64: used to come back 0
		{[]byte{0x7f, 0xff, 0, 0, 0, 0, 0, 0, 5}, 0, false},                             // used to come back negative
		{[]byte{0x00, 0x80, 0, 0, 0, 0, 0, 0, 0}, 0, false},                             // +2^63
		{[]byte{0xff, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 0, false},        // -2^63-1
		{[]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 5}, 0, false},                                // ten octets
		{nil, 0, false},
	} {
		got, err := ParseInt(tc.content)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseInt(% x) = %d, %v; want %d, ok %v", tc.content, got, err, tc.want, tc.ok)
		}
	}
}

func TestAppendIntoWarmBufferDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 1024)
	oid := []uint32{1, 3, 6, 1, 2, 1, 2, 2, 1, 10, 1}
	arena := make([]uint32, 0, 64)
	content := AppendOID(nil, oid)[2:]
	if n := testing.AllocsPerRun(200, func() {
		b, seq := BeginTLV(buf[:0], TagSequence)
		b = AppendOID(b, oid)
		b = AppendUint(b, TagCounter32, 1<<31)
		b = EndTLV(b, seq)
		if _, err := AppendArcs(arena[:0], content); err != nil || len(b) == 0 {
			t.Fatal("codec broke")
		}
	}); n != 0 {
		t.Fatalf("encode and OID parse into warm storage allocate %v times", n)
	}
}
