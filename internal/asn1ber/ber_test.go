package asn1ber

import (
	"bytes"
	"testing"
	"testing/quick"
)

func roundTripInt(t *testing.T, v int64) {
	t.Helper()
	b := AppendInt(nil, TagInteger, v)
	r := NewReader(b)
	tag, got, err := r.ReadInt()
	if err != nil || tag != TagInteger || got != v {
		t.Fatalf("round trip %d -> (%v, %d, %v)", v, tag, got, err)
	}
	if !r.Empty() {
		t.Fatalf("leftover bytes after %d", v)
	}
}

func TestIntRoundTripEdgeCases(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 127, 128, -128, -129, 255, 256,
		1<<31 - 1, -(1 << 31), 1<<63 - 1, -(1 << 63)} {
		roundTripInt(t, v)
	}
}

func TestIntWireFormat(t *testing.T) {
	// Known encodings from X.690.
	cases := []struct {
		v    int64
		want []byte
	}{
		{0, []byte{0x02, 0x01, 0x00}},
		{127, []byte{0x02, 0x01, 0x7f}},
		{128, []byte{0x02, 0x02, 0x00, 0x80}},
		{256, []byte{0x02, 0x02, 0x01, 0x00}},
		{-128, []byte{0x02, 0x01, 0x80}},
		{-129, []byte{0x02, 0x02, 0xff, 0x7f}},
	}
	for _, c := range cases {
		got := AppendInt(nil, TagInteger, c.v)
		if !bytes.Equal(got, c.want) {
			t.Fatalf("encode %d = % x, want % x", c.v, got, c.want)
		}
	}
}

func TestPropertyIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		b := AppendInt(nil, TagInteger, v)
		_, got, err := NewReader(b).ReadInt()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		b := AppendUint(nil, TagCounter64, v)
		tag, content, err := NewReader(b).ReadTLV()
		if err != nil || tag != TagCounter64 {
			return false
		}
		got, err := ParseUint(content)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUintHighBitGetsLeadingZero(t *testing.T) {
	b := AppendUint(nil, TagCounter32, 0x80000000)
	// tag, len=5, 00 80 00 00 00
	want := []byte{TagCounter32, 0x05, 0x00, 0x80, 0x00, 0x00, 0x00}
	if !bytes.Equal(b, want) {
		t.Fatalf("encode = % x, want % x", b, want)
	}
}

func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(s []byte) bool {
		b := AppendString(nil, TagOctetString, s)
		content, err := NewReader(b).ReadExpect(TagOctetString)
		return err == nil && bytes.Equal(content, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLongFormLength(t *testing.T) {
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i)
	}
	b := AppendString(nil, TagOctetString, big)
	content, err := NewReader(b).ReadExpect(TagOctetString)
	if err != nil || !bytes.Equal(content, big) {
		t.Fatalf("long-form round trip failed: %v", err)
	}
}

func TestOIDRoundTrip(t *testing.T) {
	cases := [][]uint32{
		{1, 3, 6, 1, 2, 1, 1, 1, 0},          // sysDescr.0
		{1, 3, 6, 1, 4, 1, 2021, 11, 9},      // enterprise with multi-byte arc
		{0, 0},                               // zeroDotZero
		{2, 100, 3},                          // first arc 2
		{1, 3, 6, 1, 2, 1, 2, 2, 1, 10, 1e9}, // huge last arc
	}
	for _, arcs := range cases {
		b := AppendOID(nil, arcs)
		content, err := NewReader(b).ReadExpect(TagOID)
		if err != nil {
			t.Fatalf("decode %v: %v", arcs, err)
		}
		got, err := ParseOID(content)
		if err != nil {
			t.Fatalf("parse %v: %v", arcs, err)
		}
		if len(got) != len(arcs) {
			t.Fatalf("round trip %v -> %v", arcs, got)
		}
		for i := range arcs {
			if got[i] != arcs[i] {
				t.Fatalf("round trip %v -> %v", arcs, got)
			}
		}
	}
}

func TestOIDKnownEncoding(t *testing.T) {
	// 1.3.6.1.2.1 encodes as 2b 06 01 02 01.
	b := AppendOID(nil, []uint32{1, 3, 6, 1, 2, 1})
	want := []byte{TagOID, 0x05, 0x2b, 0x06, 0x01, 0x02, 0x01}
	if !bytes.Equal(b, want) {
		t.Fatalf("encode = % x, want % x", b, want)
	}
}

func TestPropertyOIDRoundTrip(t *testing.T) {
	f := func(tail []uint32) bool {
		arcs := append([]uint32{1, 3}, tail...)
		b := AppendOID(nil, arcs)
		content, err := NewReader(b).ReadExpect(TagOID)
		if err != nil {
			return false
		}
		got, err := ParseOID(content)
		if err != nil || len(got) != len(arcs) {
			return false
		}
		for i := range arcs {
			if got[i] != arcs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedSequence(t *testing.T) {
	inner := AppendInt(nil, TagInteger, 42)
	inner = AppendString(inner, TagOctetString, []byte("public"))
	msg := AppendTLV(nil, TagSequence, inner)
	seq, err := NewReader(msg).ReadExpect(TagSequence)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(seq)
	if _, v, err := r.ReadInt(); err != nil || v != 42 {
		t.Fatalf("inner int = %d, %v", v, err)
	}
	s, err := r.ReadExpect(TagOctetString)
	if err != nil || string(s) != "public" {
		t.Fatalf("inner string = %q, %v", s, err)
	}
	if !r.Empty() {
		t.Fatal("sequence not fully consumed")
	}
}

func TestTruncatedInputs(t *testing.T) {
	good := AppendInt(nil, TagInteger, 1234)
	for i := 0; i < len(good); i++ {
		if _, _, err := NewReader(good[:i]).ReadTLV(); err == nil {
			t.Fatalf("ReadTLV accepted %d-byte prefix", i)
		}
	}
}

func TestBadLongFormLength(t *testing.T) {
	// 0x85 claims 5 length bytes; we cap at 4.
	b := []byte{TagOctetString, 0x85, 1, 2, 3, 4, 5}
	if _, _, err := NewReader(b).ReadTLV(); err == nil {
		t.Fatal("accepted 5-byte length")
	}
}

func TestNullEncoding(t *testing.T) {
	b := AppendNull(nil)
	if !bytes.Equal(b, []byte{TagNull, 0x00}) {
		t.Fatalf("null = % x", b)
	}
}
