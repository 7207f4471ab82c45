package results

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"
)

// oracleLine is the reference encoding of a record line: json.Marshal of
// the record envelope and a newline.
func oracleLine(scenario string, shards int, rec *Record) ([]byte, error) {
	b, err := json.Marshal(Envelope{SchemaVersion: SchemaVersion, Scenario: scenario, Shards: shards, Record: rec})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// fuzzSamples decodes the sample mode and raw float bits of a fuzz input:
// mode 0 is a nil slice, mode 1 an empty one, anything else the
// little-endian float64s in data, whatever their bit patterns.
func fuzzSamples(mode byte, data []byte) []float64 {
	switch mode % 3 {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	vals := []float64{}
	for i := 0; i+8 <= len(data); i += 8 {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
	}
	return vals
}

// floatBits encodes sample values as a fuzz input.
func floatBits(vals ...float64) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzEnvelopeLine holds the append encoder to json.Marshal over arbitrary
// batch, metric, unit and scenario strings, shard counts, timestamps and
// float bit patterns: the line must match byte for byte, or both must fail
// with the same error text.
func FuzzEnvelopeLine(f *testing.F) {
	f.Add("h0->h1", "throughput", "bits/s", "db-ingest", 1, int64(30_000_000), byte(2), floatBits(100, 101.5, 99.25))
	f.Add("<&>", `"quoted"\`, "", "a\tb\n", 0, int64(0), byte(2), floatBits(1.25))
	f.Add("\xff", "bad\xc3", "\x00\x1f\x7f", "\xe2\x80", 8, int64(-1), byte(0), []byte(nil))
	f.Add("line\u2028para\u2029", "\u00e9\U0001F600", "%", "", -3, int64(math.MaxInt64), byte(1), []byte(nil))
	f.Add("p", "m", "", "s", 1, int64(1), byte(2), floatBits(math.NaN()))
	f.Add("p", "m", "s", "s", 1, int64(1), byte(2), floatBits(1, math.Inf(-1)))
	f.Add("p", "m", "s", "s", 1, int64(1), byte(2), floatBits(math.Copysign(0, -1), 1e-7, 1e21, 1e-6, 999999999999999999999.0))
	f.Add("p", "m", "", "s", 1, int64(math.MinInt64), byte(2), floatBits(math.SmallestNonzeroFloat64, math.MaxFloat64, -1.5e-300, 0.1))
	f.Fuzz(func(t *testing.T, batch, metric, unit, scenario string, shards int, atNS int64, mode byte, data []byte) {
		rec := Record{Batch: batch, Metric: metric, Unit: unit, AtNS: atNS, Samples: fuzzSamples(mode, data)}
		want, wantErr := oracleLine(scenario, shards, &rec)
		got, err := appendRecordLine(nil, scenario, shards, &rec)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("error %q, json.Marshal error %q", err, wantErr)
			}
			return
		}
		if string(got) != string(want) {
			t.Fatalf("line differs from json.Marshal\n got: %q\nwant: %q", got, want)
		}
	})
}

// dbIngestBatch is one closed batch as the db-ingest benchmark workload
// feeds the writer: a path series, 16 samples in [0, 1) at full precision.
func dbIngestBatch() []float64 {
	x := uint64(88172645463325252)
	samples := make([]float64, 16)
	for i := range samples {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		samples[i] = float64(x>>11) / (1 << 53)
	}
	return samples
}

// TestWriteBatchAllocatesNothing is the writer's allocation floor: once the
// header is out and the line buffer has grown, a batch — with the escaped
// '>' every path name carries — is encoded and written without allocating.
func TestWriteBatchAllocatesNothing(t *testing.T) {
	w := NewWriter(io.Discard, "db-ingest", 1, RunMeta{Tool: "encode_test"})
	samples := dbIngestBatch()
	write := func() {
		if err := w.WriteBatch("h17->h18", "throughput", "bits/s", 123_456_789, samples); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
	}
	write()
	if n := testing.AllocsPerRun(1000, write); n != 0 {
		t.Fatalf("WriteBatch allocates %v times per batch, want 0", n)
	}
}

// TestWriterNaNIsSticky: a sample JSON cannot carry fails the write with
// json.Marshal's error, writes no partial line, and stops the stream.
func TestWriterNaNIsSticky(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "nan", 1, RunMeta{})
	if err := w.WriteBatch("p", "m", "", 0, []float64{1}); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	before := buf.Len()
	err := w.WriteBatch("p", "m", "", 0, []float64{2, math.NaN()})
	var uve *json.UnsupportedValueError
	if !errors.As(err, &uve) || err.Error() != "json: unsupported value: NaN" {
		t.Fatalf("NaN sample: error %v, want json.Marshal's", err)
	}
	if buf.Len() != before {
		t.Errorf("failed record wrote %q", buf.Bytes()[before:])
	}
	if w.WriteBatch("p", "m", "", 0, []float64{3}) != err || w.Err() != err || w.Records() != 1 {
		t.Errorf("error not sticky: Err %v, Records %d", w.Err(), w.Records())
	}
}

// BenchmarkWriteBatch is the writer's unit cost in the db-ingest shape:
// one 16-sample batch of a path series into a discarding writer.
func BenchmarkWriteBatch(b *testing.B) {
	w := NewWriter(io.Discard, "db-ingest", 1, RunMeta{Tool: "encode_test"})
	samples := dbIngestBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WriteBatch("h17->h18", "throughput", "bits/s", int64(i), samples); err != nil {
			b.Fatal(err)
		}
	}
}
