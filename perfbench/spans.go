package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"time"
)

// span is one call from the benchmark into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 = none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spans records the benchmark's calls into each layer, in memory, for
// the traced run. A nil *spans records nothing and adds no labels, so
// the untraced run pays one nil check per call.
type spans struct {
	t0    time.Time
	op    int
	list  []span
	stack []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// do runs f inside a span called name. The CPU profile sees the same
// name as the pprof label "span", so `go tool pprof -tagfocus
// span=<name>` slices the profile by span.
func (s *spans) do(name string, f func()) {
	if s == nil {
		f()
		return
	}
	id := len(s.list) + 1
	parent := 0
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.list = append(s.list, span{ID: id, Parent: parent, Op: s.op, Name: name,
		Start: time.Since(s.t0).Seconds()})
	s.stack = append(s.stack, id)
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { f() })
	s.stack = s.stack[:len(s.stack)-1]
	s.list[id-1].End = time.Since(s.t0).Seconds()
}

// spanTotal is the time spent in spans of one name. Self excludes the
// part of each span's interval that its child spans cover.
type spanTotal struct {
	Name        string
	Count       int
	Total, Self float64
}

func (s *spans) totals() []spanTotal {
	child := make([]float64, len(s.list)+1)
	for _, sp := range s.list {
		child[sp.Parent] += sp.End - sp.Start
	}
	index := map[string]int{}
	var out []spanTotal
	for _, sp := range s.list {
		i, ok := index[sp.Name]
		if !ok {
			i = len(out)
			index[sp.Name] = i
			out = append(out, spanTotal{Name: sp.Name})
		}
		t := &out[i]
		t.Count++
		t.Total += sp.End - sp.Start
		t.Self += sp.End - sp.Start - child[sp.ID]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

func (s *spans) write(path string) error {
	b, err := json.MarshalIndent(s.list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
