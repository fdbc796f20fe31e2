package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around its own call into the layer.
type span struct {
	Name string `json:"name"`
	Rank int    `json:"rank"`
	// ID is the epoch (or, for a query-mix read, the query) the span
	// belongs to; spans of one epoch share it.
	ID int64 `json:"id"`
	// Parent indexes the causing span in the same rank's list (-1 for an
	// epoch root); Trace rewrites it to an index into the merged list.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer keeps one rank's spans in memory; a disabled tracer records
// nothing and add returns -1.
type tracer struct {
	on    bool
	rank  int
	spans []span
}

func (t *tracer) add(name string, id int64, parent int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Rank: t.rank, ID: id, Parent: parent,
		Start: start.UnixNano(), End: end.UnixNano(),
	})
	return len(t.spans) - 1
}

// end closes a span opened before its end was known.
func (t *tracer) end(i int, end time.Time) {
	if i >= 0 {
		t.spans[i].End = end.UnixNano()
	}
}

// selfTimes returns, per span name, the summed self time of one rank's
// spans: each span's duration minus the part its children cover. A rank's
// calls are sequential, so children never overlap one another.
func selfTimes(spans []span, into map[string]int64) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		into[s.Name] += s.End - s.Start - child[i]
	}
}

// layerOf maps a span name to the layer whose self time it counts toward:
// the prefix before the first dot, or "bench" for the epoch root (time in
// the benchmark's own code between calls).
func layerOf(name string) string {
	if layer, _, ok := strings.Cut(name, "."); ok {
		return layer
	}
	return "bench"
}

// writeTrace writes every span of a run, merged across ranks and worlds,
// as one JSON document.
func writeTrace(path, workloadName string, seed int64, ranks [][]span) error {
	var all []span
	for _, rs := range ranks {
		base := len(all)
		for _, s := range rs {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workloadName, seed, all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
