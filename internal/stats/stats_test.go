package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileExactValues(t *testing.T) {
	r := NewRecorder(0)
	for i := 1; i <= 100; i++ {
		r.RecordMicros(float64(i))
	}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {25, 25.75}, {75, 75.25},
	}
	for _, c := range cases {
		if got := r.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%.0f = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	r := NewRecorder(0)
	r.Record(42 * time.Microsecond)
	for _, p := range []float64{0, 5, 50, 95, 100} {
		if got := r.Percentile(p); got != 42 {
			t.Errorf("p%.0f = %g, want 42", p, got)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	r := NewRecorder(0)
	if !math.IsNaN(r.Percentile(50)) || !math.IsNaN(r.Mean()) {
		t.Error("empty recorder should return NaN")
	}
	s := r.Summarize()
	if s.Count != 0 || !math.IsNaN(s.P50) {
		t.Error("empty summary")
	}
}

func TestRecorderInterleavedRecordAndQuery(t *testing.T) {
	r := NewRecorder(0)
	r.RecordMicros(10)
	if r.Percentile(50) != 10 {
		t.Fatal("first query")
	}
	r.RecordMicros(30)
	r.RecordMicros(20) // out of order: sort flag must reset
	if got := r.Percentile(100); got != 30 {
		t.Errorf("max after re-record = %g, want 30", got)
	}
	if got := r.Percentile(0); got != 10 {
		t.Errorf("min after re-record = %g, want 10", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.RecordMicros(float64(i))
			}
		}()
	}
	wg.Wait()
	if r.Count() != 8000 {
		t.Errorf("count = %d, want 8000", r.Count())
	}
}

func TestMergeAndSummary(t *testing.T) {
	a, b := NewRecorder(0), NewRecorder(0)
	for i := 0; i < 50; i++ {
		a.RecordMicros(float64(i))
		b.RecordMicros(float64(i + 50))
	}
	a.Merge(b)
	s := a.Summarize()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Mean != 49.5 {
		t.Errorf("mean %g", s.Mean)
	}
	if s.P50 != 49.5 {
		t.Errorf("p50 %g", s.P50)
	}
	if !strings.Contains(s.String(), "n=100") {
		t.Errorf("summary string: %s", s.String())
	}
}

// Property: interpolated percentile lies within [min, max] and is monotone
// in p; p0/p100 equal exact min/max.
func TestQuickPercentileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + rng.Intn(200)
		r := NewRecorder(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
			r.RecordMicros(vals[i])
		}
		sort.Float64s(vals)
		if r.Percentile(0) != vals[0] || r.Percentile(100) != vals[n-1] {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := r.Percentile(p)
			if v < prev || v < vals[0] || v > vals[n-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the interpolated percentile is close to the nearest-rank value
// for large n.
func TestQuickPercentileVsNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		n := 100 + rng.Intn(400)
		r := NewRecorder(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
			r.RecordMicros(vals[i])
		}
		sort.Float64s(vals)
		for _, p := range []float64{5, 25, 50, 75, 95} {
			idx := int(p / 100 * float64(n-1))
			got := r.Percentile(p)
			// Interpolated value must lie between neighbors of the rank.
			lo, hi := vals[idx], vals[minInt(idx+1, n-1)]
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTableRender(t *testing.T) {
	tb := NewTable("latency", "scenario", "p50", "p95")
	tb.AddRow("client-push", 12.5, 30.0)
	tb.AddRow("fallback", 99.0, 250.25)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"## latency", "scenario", "client-push", "12.5", "250.2", "fallback"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if len(tb.Rows()) != 2 {
		t.Errorf("rows = %d", len(tb.Rows()))
	}
}

// TestTableFloatGolden pins the width-aware float rendering: small
// values keep the one-decimal form, values past seven integer digits
// switch to scientific notation instead of blowing out their column,
// and non-finite values render as names.
func TestTableFloatGolden(t *testing.T) {
	tb := NewTable("counters", "name", "value")
	tb.AddRow("small", 12.5)
	tb.AddRow("seven-digits", 9999999.4)
	tb.AddRow("eight-digits", 12345678.0)
	tb.AddRow("huge", 123456789012.0)
	tb.AddRow("negative-huge", -98765432.1)
	tb.AddRow("nan", math.NaN())
	var sb strings.Builder
	tb.Render(&sb)
	// The renderer pads every cell to the column width; strip the
	// trailing pad so the golden stays readable.
	lines := strings.Split(sb.String(), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	got := strings.Join(lines, "\n")

	const want = `## counters
name           value
-------------------------
small          12.5
seven-digits   9999999.4
eight-digits   1.235e+07
huge           1.235e+11
negative-huge  -9.877e+07
nan            NaN
`
	if got != want {
		t.Errorf("table render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
