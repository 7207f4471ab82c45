package results

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// The record envelope is the pipeline's hot path — one line per closed
// batch from every store and director with results on — so it is appended
// by hand instead of marshalled through reflection. The bytes are exactly
// what json.Marshal writes for the same Envelope (field order, HTML-safe
// string escapes, float format, omitempty, null vs []); json.Marshal is
// the encoder's test oracle (FuzzEnvelopeLine and the scenario streams in
// internal/experiments), and it still writes the once-per-stream header.

// appendRecordLine appends the envelope line of one record for a stream of
// the given scenario and shard count: json.Marshal(Envelope{SchemaVersion,
// scenario, shards, Record: rec}) and a newline. On a NaN or ±Inf sample it
// returns json.Marshal's error and b holds a partial line.
func appendRecordLine(b []byte, scenario string, shards int, rec *Record) ([]byte, error) {
	b = append(b, `{"schema_version":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = append(b, `,"scenario":`...)
	b = appendString(b, scenario)
	b = append(b, `,"shards":`...)
	b = strconv.AppendInt(b, int64(shards), 10)
	b = append(b, `,"record":`...)
	b, err := appendRecord(b, rec)
	if err != nil {
		return b, err
	}
	return append(b, '}', '\n'), nil
}

// appendRecord appends json.Marshal(rec): the inner object of a record
// line, and the unit RecordDigest hashes.
func appendRecord(b []byte, rec *Record) ([]byte, error) {
	b = append(b, `{"batch":`...)
	b = appendString(b, rec.Batch)
	b = append(b, `,"metric":`...)
	b = appendString(b, rec.Metric)
	if rec.Unit != "" {
		b = append(b, `,"unit":`...)
		b = appendString(b, rec.Unit)
	}
	b = append(b, `,"at_ns":`...)
	b = strconv.AppendInt(b, rec.AtNS, 10)
	b = append(b, `,"samples":`...)
	if rec.Samples == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range rec.Samples {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendFloat(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendFloat writes a float64 as encoding/json does: shortest 'f' form,
// 'e' form outside [1e-6, 1e21) with a one-digit negative exponent kept
// short ("1e-7", not "1e-07"). JSON has no NaN or infinity; those return
// the error json.Marshal returns.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString writes s as a JSON string exactly as json.Marshal does. The
// escaper is HTML-safe — '<', '>' and '&' become \u003c, \u003e and \u0026 —
// and that is the common case, not a corner: every path ID holds "->", so
// every path batch name carries an escaped '>'. Control bytes take their
// short escape or \u00XX, U+2028 and U+2029 are escaped, and each byte of
// invalid UTF-8 becomes \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
