package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Count is the number of layer operations
// the span covers (queries, appends, events), so per-operation costs are
// measured where the work happens.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"`
}

// spans is an in-memory span recorder. It is safe for concurrent use; a
// nil *spans records nothing.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id, crediting it count operations.
func (s *spans) end(id, count int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list[id-1].End = now
	s.list[id-1].Count = count
}

// layerStat aggregates every span of one name.
type layerStat struct {
	spans int
	count int
	total time.Duration
	self  time.Duration // total minus the time covered by child spans
}

// perOp returns the mean self time per counted operation, in the given
// unit.
func (l layerStat) perOp(unit time.Duration) float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.self) / float64(l.count) / float64(unit)
}

// totalPerSpan returns the mean duration per span, children included, in
// the given unit.
func (l layerStat) totalPerSpan(unit time.Duration) float64 {
	if l.spans == 0 {
		return 0
	}
	return float64(l.total) / float64(l.spans) / float64(unit)
}

// perSpan returns the mean self time per span, in the given unit.
func (l layerStat) perSpan(unit time.Duration) float64 {
	if l.spans == 0 {
		return 0
	}
	return float64(l.self) / float64(l.spans) / float64(unit)
}

// stats aggregates the recorded spans by name. Children of one span never
// overlap (each client or job records its own sequential tree), so a
// span's self time is its duration minus its children's.
func (s *spans) stats() map[string]layerStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	child := make([]time.Duration, len(s.list)+1)
	for _, sp := range s.list {
		if sp.Parent > 0 {
			child[sp.Parent] += time.Duration(sp.End - sp.Start)
		}
	}
	out := map[string]layerStat{}
	for _, sp := range s.list {
		d := time.Duration(sp.End - sp.Start)
		st := out[sp.Name]
		st.spans++
		st.count += sp.Count
		st.total += d
		st.self += d - child[sp.ID]
		out[sp.Name] = st
	}
	return out
}

// write dumps every span as one JSON line.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			s.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
