package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark's own spans wrap its calls into each layer's public
// functions. They are kept in memory, written out as JSON lines when the
// run ends, and reduced to self time: a span's duration minus the part of
// it that its children cover.

type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil tracer records nothing, so untraced runs
// pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int64, req string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int64, req string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	t.add(name, parent, req, start, time.Now())
}

// reserve records a placeholder span to be closed with close, so a parent
// has its id before its children run.
func (t *tracer) reserve(name string, parent int64, req string) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, req, now, now)
}

func (t *tracer) close(id int64) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// selfTimes reduces the spans to self time in microseconds, per span name.
func (t *tracer) selfTimes() map[string][]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		covered := coveredNs(s, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e3)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = start, end
		} else {
			curEnd = max(curEnd, end)
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
