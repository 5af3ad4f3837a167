// Package stats provides latency recording and summarization: exact
// percentiles over recorded samples, boxplot-style summaries
// (p5/p25/p50/p75/p95 as in the paper's Figure 3), and fixed-width
// table rendering for command output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Recorder accumulates duration samples. It is safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	samples []float64 // microseconds
	sorted  bool
}

// NewRecorder returns an empty Recorder with capacity for n samples.
func NewRecorder(n int) *Recorder {
	return &Recorder{samples: make([]float64, 0, n)}
}

// Record adds one latency sample.
func (r *Recorder) Record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, float64(d.Nanoseconds())/1e3)
	r.sorted = false
	r.mu.Unlock()
}

// RecordMicros adds one latency sample expressed in microseconds.
func (r *Recorder) RecordMicros(us float64) {
	r.mu.Lock()
	r.samples = append(r.samples, us)
	r.sorted = false
	r.mu.Unlock()
}

// Count returns the number of recorded samples.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Merge appends all samples from o.
func (r *Recorder) Merge(o *Recorder) {
	o.mu.Lock()
	src := append([]float64(nil), o.samples...)
	o.mu.Unlock()
	r.mu.Lock()
	r.samples = append(r.samples, src...)
	r.sorted = false
	r.mu.Unlock()
}

func (r *Recorder) ensureSorted() {
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) in microseconds
// using linear interpolation between closest ranks. Returns NaN when no
// samples have been recorded.
func (r *Recorder) Percentile(p float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.percentileLocked(p)
}

func (r *Recorder) percentileLocked(p float64) float64 {
	n := len(r.samples)
	if n == 0 {
		return math.NaN()
	}
	r.ensureSorted()
	if p <= 0 {
		return r.samples[0]
	}
	if p >= 100 {
		return r.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return r.samples[lo]
	}
	frac := rank - float64(lo)
	return r.samples[lo]*(1-frac) + r.samples[hi]*frac
}

// Mean returns the arithmetic mean in microseconds (NaN if empty).
func (r *Recorder) Mean() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range r.samples {
		sum += v
	}
	return sum / float64(len(r.samples))
}

// Min returns the smallest sample (NaN if empty).
func (r *Recorder) Min() float64 { return r.Percentile(0) }

// Max returns the largest sample (NaN if empty).
func (r *Recorder) Max() float64 { return r.Percentile(100) }

// Summary is a boxplot-style five-number summary plus count and mean,
// matching the paper's Figure 3 presentation (median, box p25–p75,
// whiskers p5–p95). All latencies are in microseconds.
type Summary struct {
	Count int
	Mean  float64
	P5    float64
	P25   float64
	P50   float64
	P75   float64
	P95   float64
	P99   float64
}

// Summarize computes the five-number summary of the recorded samples.
func (r *Recorder) Summarize() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Summary{
		Count: len(r.samples),
		Mean:  r.meanLocked(),
		P5:    r.percentileLocked(5),
		P25:   r.percentileLocked(25),
		P50:   r.percentileLocked(50),
		P75:   r.percentileLocked(75),
		P95:   r.percentileLocked(95),
		P99:   r.percentileLocked(99),
	}
}

func (r *Recorder) meanLocked() float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range r.samples {
		sum += v
	}
	return sum / float64(len(r.samples))
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fµs p5=%.1f p25=%.1f p50=%.1f p75=%.1f p95=%.1f p99=%.1f",
		s.Count, s.Mean, s.P5, s.P25, s.P50, s.P75, s.P95, s.P99)
}
