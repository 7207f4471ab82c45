package asn1ber

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzBERRoundTrip feeds arbitrary bytes through the TLV reader and checks
// the decode→encode round trip of every value the codec understands: a
// value that parses must re-encode to bytes that parse back to the same
// value, and the re-encoding must be a fixed point (our encoder is
// canonical even when the input was not, e.g. non-minimal base-128 arcs or
// over-long two's-complement integers).
func FuzzBERRoundTrip(f *testing.F) {
	f.Add(AppendInt(nil, TagInteger, -129))
	f.Add(AppendInt(nil, TagInteger, 1<<40))
	f.Add(AppendUint(nil, TagCounter32, 0xffffffff))
	f.Add(AppendUint(nil, TagCounter64, 1<<63))
	f.Add(AppendOID(nil, []uint32{1, 3, 6, 1, 2, 1, 2, 2, 1, 10, 1}))
	f.Add(AppendOID(nil, []uint32{2, 0xffffffff}))
	f.Add(AppendTLV(nil, TagSequence, AppendNull(AppendInt(nil, TagInteger, 7))))
	f.Add(AppendString(nil, TagOctetString, bytes.Repeat([]byte{'x'}, 200))) // long-form length
	f.Add([]byte{TagInteger, 9, 0x7f, 0xff, 0, 0, 0, 0, 0, 0, 5})            // nine octets, too wide for int64
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		for !r.Empty() {
			tag, content, err := r.ReadTLV()
			if err != nil {
				return
			}
			switch tag {
			case TagInteger:
				v, err := ParseInt(content)
				if err != nil {
					continue
				}
				b := AppendInt(nil, tag, v)
				tag2, v2, err := NewReader(b).ReadInt()
				if err != nil || tag2 != tag || v2 != v {
					t.Fatalf("INTEGER %d round trip: got tag %#x v %d err %v", v, tag2, v2, err)
				}
			case TagCounter32, TagGauge32, TagTimeTicks, TagCounter64:
				u, err := ParseUint(content)
				if err != nil {
					continue
				}
				b := AppendUint(nil, tag, u)
				content2, err := NewReader(b).ReadExpect(tag)
				if err != nil {
					t.Fatalf("uint %d re-encode unreadable: %v", u, err)
				}
				u2, err := ParseUint(content2)
				if err != nil || u2 != u {
					t.Fatalf("uint round trip: %d -> %d (err %v)", u, u2, err)
				}
			case TagOID:
				checkOIDAgainstOracle(t, content)
				arcs, err := ParseOID(content)
				if err != nil {
					continue
				}
				b := AppendOID(nil, arcs)
				content2, err := NewReader(b).ReadExpect(TagOID)
				if err != nil {
					t.Fatalf("OID %v re-encode unreadable: %v", arcs, err)
				}
				arcs2, err := ParseOID(content2)
				if err != nil || !slices.Equal(arcs, arcs2) {
					t.Fatalf("OID round trip: %v -> %v (err %v)", arcs, arcs2, err)
				}
				if b2 := AppendOID(nil, arcs2); !bytes.Equal(b, b2) {
					t.Fatalf("OID encoding not a fixed point: % x vs % x", b, b2)
				}
			}
		}
	})
}
