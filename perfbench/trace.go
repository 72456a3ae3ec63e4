package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"surfdeformer/internal/obs"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the public entry point it calls. Obs holds the deltas of
// every program counter and histogram sum that moved while the span was
// open; the registry is process-wide, so spans that overlap in time (the
// two point workers) see each other's work.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  float64          `json:"start_s"`
	End    float64          `json:"end_s"`
	Obs    map[string]int64 `json:"obs,omitempty"`
}

// recorder keeps spans in memory; they are written out once, when the
// benchmark ends. Only the traced run records spans.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	r      *recorder
	id     int
	parent int
	name   string
	start  time.Time
	before map[string]int64
}

// begin opens a span under parent (0 for a root span).
func (r *recorder) begin(name string, parent int) *openSpan {
	r.mu.Lock()
	r.spans = append(r.spans, span{}) // reserve the ID so children can name it
	id := len(r.spans)
	r.mu.Unlock()
	return &openSpan{r: r, id: id, parent: parent, name: name, before: obsValues(), start: time.Now()}
}

// ID returns the span's ID, for use as a parent.
func (s *openSpan) ID() int { return s.id }

// end closes the span and returns its duration.
func (s *openSpan) end() time.Duration {
	stop := time.Now()
	after := obsValues()
	delta := map[string]int64{}
	for k, v := range after {
		if d := v - s.before[k]; d != 0 {
			delta[k] = d
		}
	}
	r := s.r
	r.mu.Lock()
	r.spans[s.id-1] = span{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start.Sub(r.t0).Seconds(), End: stop.Sub(r.t0).Seconds(),
		Obs: delta,
	}
	r.mu.Unlock()
	return stop.Sub(s.start)
}

// checkTree verifies that every span ended, that its parent exists and was
// opened before it, and that the parent's interval contains the child's.
func (r *recorder) checkTree() error {
	const slack = 1e-6 // clock reads of parent and child are not simultaneous
	for _, s := range r.spans {
		if s.ID == 0 {
			return fmt.Errorf("span left open")
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d %q: parent %d opened after it", s.ID, s.Name, s.Parent)
		}
		p := r.spans[s.Parent-1]
		if s.Start+slack < p.Start || s.End > p.End+slack {
			return fmt.Errorf("span %d %q [%.6f, %.6f] escapes parent %d %q [%.6f, %.6f]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// obsValues reads every counter and every histogram's count and sum from the
// program's registry; histogram fields are suffixed .count and .sum.
func obsValues() map[string]int64 {
	snap := obs.Default().Snapshot()
	m := make(map[string]int64, len(snap.Counters)+2*len(snap.Histograms))
	for _, c := range snap.Counters {
		m[c.Name] = c.Value
	}
	for _, h := range snap.Histograms {
		m[h.Name+".count"] = h.Count
		m[h.Name+".sum"] = h.Sum
	}
	return m
}

// obsDelta returns after − before for every key of after.
func obsDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// mutexWait reads the mutex profile and returns the total contention delay,
// in seconds, of samples whose stack contains a frame matching fn. The Go
// runtime attributes a delay to the stack that released the contended lock.
func mutexWait(fn string) (float64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		return 0, err
	}
	var cyclesPerSec float64
	var total, cur int64
	match := false
	flush := func() {
		if match {
			total += cur
		}
		cur, match = 0, false
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
			if err != nil {
				return 0, fmt.Errorf("mutex profile header %q: %w", line, err)
			}
			cyclesPerSec = v
		case strings.HasPrefix(line, "#"):
			if strings.Contains(line, fn) {
				match = true
			}
		case len(line) > 0 && line[0] >= '0' && line[0] <= '9':
			flush()
			f := strings.Fields(line)
			v, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("mutex profile record %q: %w", line, err)
			}
			cur = v
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if cyclesPerSec <= 0 {
		return 0, fmt.Errorf("mutex profile has no cycles/second header")
	}
	return float64(total) / cyclesPerSec, nil
}

// withMutexProfile runs fn with every mutex contention event sampled.
func withMutexProfile(fn func() error) error {
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)
	return fn()
}
