package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder's origin; Parent is 0 for a root span.
// A sampled span is an estimate from a sampler: it starts with its parent
// and lasts the estimated time spent in a per-step call site.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Sampled bool   `json:"sampled,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of a traced run in memory and writes them out
// when the run ends. A recorder that is off records nothing and costs one
// branch per call, so untraced runs share the traced code path.
type recorder struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, origin: time.Now()} }

// begin opens a span and returns its id (0 when the recorder is off).
func (r *recorder) begin(name string, parent int) int {
	if !r.on {
		return 0
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// sampled records a sampler's estimate d as a child span of parent.
func (r *recorder) sampled(name string, parent int, d time.Duration) {
	if parent == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[parent-1].Start
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start, End: start + int64(d), Sampled: true})
}

// durations lists the durations of every span named name, in seconds.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// childTotal sums the durations of parent's children named name.
func (r *recorder) childTotal(parent int, name string) time.Duration {
	var t time.Duration
	for i := len(r.spans) - 1; i >= parent && parent > 0; i-- {
		if s := r.spans[i]; s.Parent == parent && s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// total sums the durations of every span named name.
func (r *recorder) total(name string) time.Duration {
	var t time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// self sums, over spans named name, each span's duration minus the part
// its child spans cover. Children of one span do not overlap: every layer
// call is made from one goroutine, and sampled children estimate disjoint
// call sites.
func (r *recorder) self(name string) time.Duration {
	child := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	var t time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			t += s.dur() - child[s.ID]
		}
	}
	return t
}

// writeFile writes the spans as JSON, ordered by start time.
func (r *recorder) writeFile(path string) error {
	spans := append([]span(nil), r.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sampleEvery is the mean per-step sampling period: one call in about
// sampleEvery is timed, at random gaps so that the sample cannot lock onto
// the executor's periodic call pattern. Timing every call would add two
// clock reads to each of a step's interface calls, more than many steps
// cost.
const sampleEvery = 64

// sampler estimates the time spent in one per-step call site from a
// random sample of its calls. It is used from the executor's goroutine
// only.
type sampler struct {
	calls, sampled uint64
	ns             int64
	skip           uint64 // calls left before the next sample
	rng            uint64
}

// sample counts a call and reports whether to time it.
func (s *sampler) sample() bool {
	s.calls++
	if s.skip > 0 {
		s.skip--
		return false
	}
	if s.rng == 0 {
		s.rng = 0x9e3779b97f4a7c15
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	s.skip = s.rng % (2 * sampleEvery) // gaps average sampleEvery-1/2 calls
	return true
}

// add records a sampled call that started at t0.
func (s *sampler) add(t0 time.Time) {
	s.ns += int64(time.Since(t0))
	s.sampled++
}

// estimate scales the sampled time to every call, less the clock's own
// cost per sample.
func (s *sampler) estimate() time.Duration {
	if s.sampled == 0 {
		return 0
	}
	per := float64(s.ns)/float64(s.sampled) - clockCost()
	return time.Duration(max(per, 0) * float64(s.calls))
}

var clockOnce = sync.OnceValue(func() float64 {
	xs := make([]float64, 0, 64)
	for i := 0; i < 64; i++ {
		const n = 1024
		var sum int64
		for j := 0; j < n; j++ {
			t0 := time.Now()
			sum += int64(time.Since(t0))
		}
		xs = append(xs, float64(sum)/n)
	}
	return median(xs)
})

// clockCost is the measured cost of one empty timed region, in ns.
func clockCost() float64 { return clockOnce() }
