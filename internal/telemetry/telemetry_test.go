package telemetry_test

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	var polls uint64
	reg.CounterFunc("polls", func() uint64 { return polls })
	polls = 5
	c := reg.Counter("polls")
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5: a reader must see its owner's field", got)
	}
	polls++
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d after the owner moved on, want 6", got)
	}

	open := 0.25
	reg.GaugeFunc("open_fraction", func() float64 { return open })
	open = 0.75
	if got := reg.Gauge("open_fraction").Value(); got != 0.75 {
		t.Fatalf("gauge = %g, want 0.75", got)
	}

	h := reg.Histogram("rtt_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.2 {
		t.Fatalf("hist sum = %g, want 556.2", h.Sum())
	}
	want := []uint64{2, 1, 1, 1} // <=1, <=10, <=100, overflow
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if reg.Histogram("rtt_ms", nil) != h {
		t.Fatal("re-registration returned a different histogram")
	}

	// Lookups are by name and kind; a miss is nil, which reads zero.
	if reg.Counter("open_fraction") != nil || reg.Gauge("polls") != nil || reg.Counter("absent") != nil {
		t.Fatal("lookup under the wrong kind or an unknown name must return nil")
	}
	// Registering a name again rebinds its reader and keeps its place.
	reg.CounterFunc("polls", func() uint64 { return 99 })
	if got := reg.Counter("polls").Value(); got != 99 {
		t.Fatalf("rebound counter = %d, want 99", got)
	}

	if reg.Len() != 3 {
		t.Fatalf("registry len = %d, want 3", reg.Len())
	}
	var order []string
	reg.Each(func(c *telemetry.Counter, g *telemetry.Gauge, h *telemetry.Histogram) {
		switch {
		case c != nil:
			order = append(order, c.Name())
		case g != nil:
			order = append(order, g.Name())
		case h != nil:
			order = append(order, h.Name())
		}
	})
	if strings.Join(order, ",") != "polls,open_fraction,rtt_ms" {
		t.Fatalf("export order = %v, want registration order", order)
	}
}

// TestReadersRunUnlocked: a reader may use the registry it is registered
// in, since a dump calls readers while it walks the rows.
func TestReadersRunUnlocked(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.CounterFunc("instruments", func() uint64 { return uint64(reg.Len()) })
	reg.GaugeFunc("self", func() float64 { return float64(reg.Counter("instruments").Value()) })
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gauge     self                                     2") {
		t.Fatalf("dump = %q", sb.String())
	}
}

// TestNilSafety drives the disabled-telemetry configuration — a nil
// registry, the nil instruments it hands out, a nil tracer — and checks
// nothing panics, nothing is registered and nothing is observed.
func TestNilSafety(t *testing.T) {
	var reg *telemetry.Registry
	reg.CounterFunc("x", func() uint64 { t.Fatal("a nil registry must never call a reader"); return 1 })
	reg.GaugeFunc("x", func() float64 { t.Fatal("a nil registry must never call a reader"); return 1 })
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	h.Observe(9)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must observe nothing")
	}
	if c.Name() != "" || g.Name() != "" || h.Name() != "" || h.Bounds() != nil {
		t.Fatal("nil instrument accessors must return zero values")
	}
	if h.BucketCount(0) != 0 {
		t.Fatal("nil histogram reads must return zero")
	}
	reg.Each(func(*telemetry.Counter, *telemetry.Gauge, *telemetry.Histogram) {
		t.Fatal("nil registry must visit nothing")
	})
	if reg.Len() != 0 {
		t.Fatal("nil registry len must be 0")
	}

	var tr *telemetry.Tracer
	sp := tr.Begin("a", "", 0)
	sp2 := sp.Child("b", "", 1)
	sp2.End(2)
	sp.End(3)
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatal("nil tracer must retain nothing")
	}
	tr.Each(func(telemetry.SpanRecord) bool {
		t.Fatal("nil tracer must visit nothing")
		return false
	})

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry text export: %q, %v", sb.String(), err)
	}
	sb.Reset()
	if err := reg.WriteJSON(&sb); err != nil || strings.TrimSpace(sb.String()) != "[]" {
		t.Fatalf("nil registry JSON export = %q, %v", sb.String(), err)
	}
	sb.Reset()
	if err := tr.WriteJSON(&sb); err != nil || strings.TrimSpace(sb.String()) != "[]" {
		t.Fatalf("nil tracer JSON export = %q, %v", sb.String(), err)
	}
}

// TestDisabledPathAllocs asserts the acceptance criterion directly: the
// disabled (nil-instrument) hot path of the push instruments allocates
// nothing. Counts and gauges have no hot path to check: they are read from
// their owner's field, at dump time only.
func TestDisabledPathAllocs(t *testing.T) {
	var reg *telemetry.Registry
	h := reg.Histogram("x", nil)
	var tr *telemetry.Tracer
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(2)
		sp := tr.Begin("s", "tag", 0)
		sp.Child("c", "", 1).End(2)
		sp.End(3)
	}); n != 0 {
		t.Fatalf("disabled telemetry path allocates %v times per op, want 0", n)
	}
}

// TestEnabledPathAllocs: even with telemetry on, histogram observations and
// span begin/end must not allocate (the ring and buckets are preallocated).
func TestEnabledPathAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("x", []float64{1, 2, 3})
	tr := telemetry.NewTracer("t", 64)
	now := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(2)
		sp := tr.Begin("s", "tag", now)
		sp.Child("c", "", now).End(now)
		sp.End(now)
		now += time.Millisecond
	}); n != 0 {
		t.Fatalf("enabled telemetry path allocates %v times per op, want 0", n)
	}
}

func TestTracerNestingAndEviction(t *testing.T) {
	tr := telemetry.NewTracer("test", 4)
	root := tr.Begin("sweep", "", 10*time.Millisecond)
	a := root.Child("poll", "s1", 11*time.Millisecond)
	a.End(12 * time.Millisecond)
	b := root.Child("poll", "s2", 13*time.Millisecond)
	b.End(15 * time.Millisecond)
	root.End(16 * time.Millisecond)

	var got []string
	tr.Each(func(s telemetry.SpanRecord) bool {
		got = append(got, s.Name+"/"+s.Tag)
		if s.Open() {
			t.Fatalf("span %s still open", s.Name)
		}
		return true
	})
	if strings.Join(got, " ") != "sweep/ poll/s1 poll/s2" {
		t.Fatalf("retained spans = %v", got)
	}

	var records []telemetry.SpanRecord
	tr.Each(func(s telemetry.SpanRecord) bool {
		records = append(records, s)
		return true
	})
	if records[1].Parent != records[0].ID || records[2].Parent != records[0].ID {
		t.Fatal("children must link to the root span")
	}
	if d := records[2].Duration(); d != 2*time.Millisecond {
		t.Fatalf("span duration = %v, want 2ms", d)
	}

	// Overflow the 4-slot ring: the oldest spans are evicted, and ending an
	// evicted span must not corrupt the slot's new occupant.
	evicted := tr.Begin("old", "", 20*time.Millisecond)
	for i := 0; i < 4; i++ {
		tr.Begin("new", "", time.Duration(21+i)*time.Millisecond).End(30 * time.Millisecond)
	}
	evicted.End(40 * time.Millisecond)
	if tr.Len() != 4 {
		t.Fatalf("retained = %d, want ring capacity 4", tr.Len())
	}
	tr.Each(func(s telemetry.SpanRecord) bool {
		if s.Name != "new" {
			t.Fatalf("evicted span %q still retained", s.Name)
		}
		if s.End != 30*time.Millisecond {
			t.Fatalf("slot corrupted by End on evicted span: %+v", s)
		}
		return true
	})
	if tr.Total() != 8 {
		t.Fatalf("total spans = %d, want 8 (3 nested + 1 evicted + 4 new)", tr.Total())
	}
}

func TestExportText(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.CounterFunc("snmp.requests", func() uint64 { return 12 })
	reg.GaugeFunc("cots.breaker_open_fraction", func() float64 { return 0.5 })
	reg.Histogram("cots.poll_rtt_s", []float64{0.001, 0.01}).Observe(0.005)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"counter   snmp.requests                            12\n",
		"gauge     cots.breaker_open_fraction               0.5\n",
		"histogram cots.poll_rtt_s",
		"le(0.001)=0 le(0.01)=1 inf=0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("text export missing %q:\n%s", want, text)
		}
	}

	tr := telemetry.NewTracer("t", 8)
	sp := tr.Begin("cots.sweep", "", time.Second)
	sp.Child("cots.poll", "s1", time.Second).End(time.Second + 2*time.Millisecond)
	sp.End(time.Second + 2*time.Millisecond)
	sb.Reset()
	if err := tr.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "  cots.poll s1 @1s +2ms") {
		t.Fatalf("trace text export missing indented child:\n%s", sb.String())
	}
}

func TestExportJSONDeterministic(t *testing.T) {
	build := func() string {
		reg := telemetry.NewRegistry()
		reg.CounterFunc("a", func() uint64 { return 1 })
		reg.GaugeFunc("b", func() float64 { return 2 })
		reg.Histogram("c", []float64{1}).Observe(0.5)
		reg.CounterFunc("d", func() uint64 { return 3 })
		var sb strings.Builder
		if err := reg.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if build() != build() {
		t.Fatal("JSON export must be deterministic across identical registries")
	}
}

// shortWriter accepts budget bytes, then fails every write.
type shortWriter struct{ budget int }

var errShort = errors.New("short write")

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errShort
	}
	w.budget -= len(p)
	return len(p), nil
}

// TestWriteDump: both formats write the whole document, and a writer that
// fails at any byte of it makes WriteDump return the error, the closing
// bytes of the JSON object included. An unknown format writes nothing.
func TestWriteDump(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.CounterFunc("snmp.requests", func() uint64 { return 12 })
	tr := telemetry.NewTracer("t", 8)
	tr.Begin("cots.sweep", "", time.Second).End(2 * time.Second)
	for _, format := range []string{"text", "json"} {
		t.Run(format, func(t *testing.T) {
			var sb strings.Builder
			if err := telemetry.WriteDump(&sb, format, reg, tr); err != nil {
				t.Fatal(err)
			}
			full := sb.String()
			if format == "json" {
				var dump struct {
					Instruments []struct{ Name string }
					Spans       []struct{ Name string }
				}
				if err := json.Unmarshal([]byte(full), &dump); err != nil || len(dump.Instruments) != 1 || len(dump.Spans) != 1 {
					t.Fatalf("dump %+v, %v:\n%s", dump, err, full)
				}
			} else if !strings.Contains(full, "snmp.requests") || !strings.HasSuffix(full, "cots.sweep @1s +1s\n") {
				t.Fatalf("text dump:\n%s", full)
			}
			for budget := 0; budget < len(full); budget++ {
				if err := telemetry.WriteDump(&shortWriter{budget: budget}, format, reg, tr); !errors.Is(err, errShort) {
					t.Fatalf("writer failing after %d of %d bytes: err = %v", budget, len(full), err)
				}
			}
		})
	}
	var sb strings.Builder
	if err := telemetry.WriteDump(&sb, "yaml", reg, tr); err == nil || sb.Len() != 0 {
		t.Fatalf("unknown format: err = %v, wrote %q", err, sb.String())
	}
}

// TestConcurrentProcsRace is the experiment harness's actual shape under
// `go test -race`: four kernels run in parallel goroutines, and each owns
// its registry, histogram and tracer, as every run builds its own. Within a
// kernel the cooperative scheduler serializes the procs, so the plain
// fields need no lock; each registry is read after its run.
func TestConcurrentProcsRace(t *testing.T) {
	const kernels, procs, ticks = 4, 8, 200
	regs := make([]*telemetry.Registry, kernels)
	var wg sync.WaitGroup
	for kn := range regs {
		reg := telemetry.NewRegistry()
		regs[kn] = reg
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := sim.NewKernel()
			defer k.Close()
			h := reg.Histogram("tick.hist", []float64{10, 100})
			tr := telemetry.NewTracer("kernel", 128)
			var count uint64 // kernel-serialized: every writer is a proc of k
			reg.CounterFunc("ticks", func() uint64 { return count })
			reg.CounterFunc("spans", func() uint64 { return uint64(tr.Total()) })
			for pn := 0; pn < procs; pn++ {
				k.Spawn("hammer", func(p *sim.Proc) {
					for i := 0; i < ticks; i++ {
						sp := tr.Begin("tick", "", p.Now())
						count++
						h.Observe(float64(i))
						p.Sleep(time.Millisecond)
						sp.End(p.Now())
					}
				})
			}
			k.Run()
		}()
	}
	wg.Wait()
	for kn, reg := range regs {
		h := reg.Histogram("tick.hist", nil)
		if got := reg.Counter("ticks").Value(); got != procs*ticks {
			t.Fatalf("kernel %d counter = %d, want %d", kn, got, procs*ticks)
		}
		if got := reg.Counter("spans").Value(); got != procs*ticks {
			t.Fatalf("kernel %d spans = %d, want %d", kn, got, procs*ticks)
		}
		if got := h.Count(); got != procs*ticks {
			t.Fatalf("kernel %d hist count = %d, want %d", kn, got, procs*ticks)
		}
		// Each proc observes 0..ticks-1 once: 11 values <= 10, 90 in
		// (10, 100], the rest overflow.
		for i, want := range []uint64{procs * 11, procs * 90, procs * (ticks - 101)} {
			if got := h.BucketCount(i); got != want {
				t.Fatalf("kernel %d bucket %d = %d, want %d", kn, i, got, want)
			}
		}
		if got, want := h.Sum(), float64(procs*ticks*(ticks-1)/2); got != want {
			t.Fatalf("kernel %d hist sum = %g, want %g", kn, got, want)
		}
		if reg.Len() != 3 {
			t.Fatalf("kernel %d registry len = %d, want 3", kn, reg.Len())
		}
	}
}
