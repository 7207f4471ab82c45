// Package asn1ber implements the subset of ASN.1 Basic Encoding Rules that
// SNMPv1/v2c needs: definite-length TLVs with single-byte tags, two's
// complement INTEGERs, OCTET STRINGs, NULL, OBJECT IDENTIFIERs, SEQUENCEs,
// and the SNMP application types (IpAddress, Counter32, Gauge32, TimeTicks,
// Opaque, Counter64).
//
// Encoding is append-style over one byte slice (a constructed value's
// children go between BeginTLV and EndTLV); decoding uses a cursor Reader.
// The package is wire-compatible with real SNMP agents for the covered
// subset.
package asn1ber

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Universal and SNMP application tags.
//
//lint:allow unusedexport RFC 1155/1157 tag numbers: the block stays complete though nothing encodes an Opaque
const (
	TagInteger     byte = 0x02
	TagOctetString byte = 0x04
	TagNull        byte = 0x05
	TagOID         byte = 0x06
	TagSequence    byte = 0x30
	TagIPAddress   byte = 0x40
	TagCounter32   byte = 0x41
	TagGauge32     byte = 0x42
	TagTimeTicks   byte = 0x43
	TagOpaque      byte = 0x44
	TagCounter64   byte = 0x46
	// Context-constructed tags 0xA0.. identify SNMP PDU types.
	TagContext byte = 0xA0
)

// ErrTruncated reports input shorter than its declared lengths.
var ErrTruncated = errors.New("asn1ber: truncated input")

// appendLength appends a BER definite length (short or long form).
func appendLength(dst []byte, n int) []byte {
	if n < 0x80 {
		return append(dst, byte(n))
	}
	var tmp [8]byte
	i := len(tmp)
	for v := n; v > 0; v >>= 8 {
		i--
		tmp[i] = byte(v)
	}
	dst = append(dst, byte(0x80|(len(tmp)-i)))
	return append(dst, tmp[i:]...)
}

// AppendTLV appends a complete tag-length-value triple.
func AppendTLV(dst []byte, tag byte, content []byte) []byte {
	dst = append(dst, tag)
	dst = appendLength(dst, len(content))
	return append(dst, content...)
}

// BeginTLV opens a TLV whose content the caller appends next, and returns
// where it starts: what EndTLV takes once the content is written.
func BeginTLV(dst []byte, tag byte) ([]byte, int) { return append(dst, tag, 0), len(dst) }

// EndTLV closes the TLV opened at dst[start] by patching its length in. A
// content of 128 octets or more is moved up to make room for the long form:
// the bytes are the minimal encoding AppendTLV would have written.
func EndTLV(dst []byte, start int) []byte {
	n := len(dst) - start - 2
	if n < 0x80 {
		dst[start+1] = byte(n)
		return dst
	}
	var tmp [9]byte
	length := appendLength(tmp[:0], n)
	dst = append(dst, length[1:]...) // as many octets as the content moves up
	copy(dst[start+1+len(length):], dst[start+2:start+2+n])
	copy(dst[start+1:], length)
	return dst
}

// AppendInt appends a two's complement INTEGER with the given tag.
func AppendInt(dst []byte, tag byte, v int64) []byte {
	var tmp [9]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte(v)
		v >>= 8
		sign := tmp[i] & 0x80
		if (v == 0 && sign == 0) || (v == -1 && sign != 0) {
			break
		}
	}
	return AppendTLV(dst, tag, tmp[i:])
}

// AppendUint appends an unsigned integer (Counter32, Gauge32, TimeTicks,
// Counter64) with minimal content octets and a leading zero when the high
// bit would otherwise read as a sign: as an INTEGER, nine octets past int64.
func AppendUint(dst []byte, tag byte, v uint64) []byte {
	if v <= math.MaxInt64 {
		return AppendInt(dst, tag, int64(v))
	}
	return append(dst, tag, 9, 0, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendString appends an OCTET STRING (or IpAddress/Opaque via tag).
func AppendString(dst []byte, tag byte, s []byte) []byte {
	return AppendTLV(dst, tag, s)
}

// AppendNull appends a NULL.
func AppendNull(dst []byte) []byte { return append(dst, TagNull, 0x00) }

// AppendOID appends an OBJECT IDENTIFIER from its arc list. OIDs shorter
// than two arcs are padded per convention (the zeroDotZero form). The first
// two arcs combine in uint64 space, so a large second arc survives the
// decode→encode round trip instead of wrapping at 2^32.
func AppendOID(dst []byte, arcs []uint32) []byte {
	dst, start := BeginTLV(dst, TagOID)
	var first, second uint32
	if len(arcs) > 0 {
		first = arcs[0]
	}
	if len(arcs) > 1 {
		second = arcs[1]
	}
	dst = appendBase128(dst, uint64(first)*40+uint64(second))
	for _, arc := range arcs[min(2, len(arcs)):] {
		dst = appendBase128(dst, uint64(arc))
	}
	return EndTLV(dst, start)
}

func appendBase128(dst []byte, v uint64) []byte {
	var tmp [10]byte
	i := len(tmp)
	i--
	tmp[i] = byte(v & 0x7f)
	v >>= 7
	for v > 0 {
		i--
		tmp[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	return append(dst, tmp[i:]...)
}

// Reader is a decoding cursor over a BER buffer.
type Reader struct {
	b   []byte
	pos int
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Empty reports whether the cursor has consumed all input.
func (r *Reader) Empty() bool { return r.pos >= len(r.b) }

// ReadTLV consumes one TLV and returns its tag and content bytes.
func (r *Reader) ReadTLV() (tag byte, content []byte, err error) {
	if r.pos+2 > len(r.b) {
		return 0, nil, ErrTruncated
	}
	tag = r.b[r.pos]
	r.pos++
	n := int(r.b[r.pos])
	r.pos++
	if n >= 0x80 {
		numBytes := n & 0x7f
		if numBytes == 0 || numBytes > 4 || r.pos+numBytes > len(r.b) {
			return 0, nil, fmt.Errorf("asn1ber: bad long-form length at %d", r.pos)
		}
		n = 0
		for i := 0; i < numBytes; i++ {
			n = n<<8 | int(r.b[r.pos])
			r.pos++
		}
	}
	if r.pos+n > len(r.b) {
		return 0, nil, ErrTruncated
	}
	content = r.b[r.pos : r.pos+n]
	r.pos += n
	return tag, content, nil
}

// ReadExpect consumes one TLV and checks its tag.
func (r *Reader) ReadExpect(want byte) ([]byte, error) {
	tag, content, err := r.ReadTLV()
	if err != nil {
		return nil, err
	}
	if tag != want {
		return nil, fmt.Errorf("asn1ber: tag 0x%02x, want 0x%02x", tag, want)
	}
	return content, nil
}

// ReadInt consumes a signed INTEGER with any tag and returns tag and value.
func (r *Reader) ReadInt() (byte, int64, error) {
	tag, content, err := r.ReadTLV()
	if err != nil {
		return 0, 0, err
	}
	v, err := ParseInt(content)
	return tag, v, err
}

// ParseInt decodes two's complement content octets, minimal or not, that fit
// int64: a ninth octet only as the sign extension of the eight below it.
func ParseInt(content []byte) (int64, error) {
	if len(content) == 0 || len(content) > 9 {
		return 0, fmt.Errorf("asn1ber: integer of %d octets", len(content))
	}
	if len(content) == 9 && content[0] != byte(int8(content[1])>>7) { // 0x00 or 0xff, as the next octet's sign has it
		return 0, errors.New("asn1ber: integer overflow")
	}
	v := int64(0)
	if content[0]&0x80 != 0 {
		v = -1
	}
	for _, b := range content {
		v = v<<8 | int64(b)
	}
	return v, nil
}

// ParseUint decodes unsigned content octets (Counter/Gauge/TimeTicks).
func ParseUint(content []byte) (uint64, error) {
	if len(content) == 0 || len(content) > 9 {
		return 0, fmt.Errorf("asn1ber: uinteger of %d octets", len(content))
	}
	if len(content) == 9 && content[0] != 0 {
		return 0, errors.New("asn1ber: uinteger overflow")
	}
	v := uint64(0)
	for _, b := range content {
		v = v<<8 | uint64(b)
	}
	return v, nil
}

// ParseOID is AppendArcs into an arc list of its own.
func ParseOID(content []byte) ([]uint32, error) { return AppendArcs(nil, content) }

// AppendArcs decodes OBJECT IDENTIFIER content octets and appends the arcs
// to dst, so that many OIDs can be cut from one slice. Arcs must fit in
// uint32 (the combined first subidentifier may reach 2*40 + 2^32-1, since
// X.690 folds the first two arcs together); anything larger is rejected
// rather than silently truncated, so a decoded OID always re-encodes to the
// same bytes. On error dst comes back at its old length.
func AppendArcs(dst []uint32, content []byte) ([]uint32, error) {
	if len(content) == 0 {
		return dst, errors.New("asn1ber: empty OID")
	}
	// Largest value any subidentifier may take: the folded first pair.
	const maxSubID = 2*40 + 0xffffffff
	start := len(dst)
	dst = slices.Grow(dst, len(content)+1) // one arc per octet at most, two from the first
	var v uint64
	first := true
	for i, b := range content {
		v = v<<7 | uint64(b&0x7f)
		if v > maxSubID {
			return dst[:start], errOIDArcOverflow
		}
		if b&0x80 != 0 {
			if i == len(content)-1 {
				return dst[:start], ErrTruncated
			}
			continue
		}
		if first {
			x := v / 40
			if x > 2 {
				x = 2
			}
			dst = append(dst, uint32(x), uint32(v-x*40))
			first = false
		} else {
			if v > 0xffffffff {
				return dst[:start], errOIDArcOverflow
			}
			dst = append(dst, uint32(v))
		}
		v = 0
	}
	return dst, nil
}

var errOIDArcOverflow = errors.New("asn1ber: OID arc overflow")
