package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Layers a span can belong to. The root span of an event ("event") runs
// from its due time to its final output; every other layer is a child of
// it, recorded by the benchmark's own code at a boundary it can reach from
// outside the engine.
const (
	layerEvent  uint8 = iota // due time → final output
	layerIngest              // actors.Feed Next call
	layerStage               // a synthetic stage function (map, filter, sink)
	layerBridge              // send-side stage end → receive-side stage start
	layerTap                 // toll probe tap
	numLayers
)

var layerNames = [numLayers]string{"event", "ingest", "stage", "bridge", "tap"}

// span is one recorded interval. id is the event's identity: the sequence
// number on the synthetic workloads, carID<<32|time on Linear Road.
type span struct {
	id         uint64
	layer      uint8
	start, end int64 // unix nanos
}

// tracer keeps spans in a preallocated buffer, claimed with one atomic add
// so concurrent stage functions record without locks or allocation. Spans
// past the capacity are counted, not kept.
type tracer struct {
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer { return &tracer{buf: make([]span, capacity)} }

// record stores one span. A nil tracer records nothing, so untraced runs
// pay one nil check at each boundary.
func (t *tracer) record(id uint64, layer uint8, start, end int64) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{id: id, layer: layer, start: start, end: end}
}

func (t *tracer) spans() []span {
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// selfTimes returns each layer's mean self time in µs per event that
// reached a final output: a span's duration minus the part of it that its
// child spans of the same event cover. Child layers have no children of
// their own, so their self time is their duration; the root's self time is
// what the engine spent between the benchmark's boundaries (queueing,
// scheduling, transport).
func (t *tracer) selfTimes() map[string]float64 {
	byID := map[uint64][]span{}
	for _, s := range t.spans() {
		byID[s.id] = append(byID[s.id], s)
	}
	var total [numLayers]float64
	events := 0
	for _, ss := range byID {
		var root *span
		var kids []span
		for i := range ss {
			if ss[i].layer == layerEvent {
				root = &ss[i]
			} else {
				kids = append(kids, ss[i])
			}
		}
		if root == nil {
			continue // an event with no final output: filtered, or not a toll
		}
		events++
		for _, k := range kids {
			total[k.layer] += float64(k.end - k.start)
		}
		total[layerEvent] += float64(root.end-root.start) - covered(root.start, root.end, kids)
	}
	out := map[string]float64{}
	for l := uint8(0); l < numLayers; l++ {
		v := 0.0
		if events > 0 {
			v = total[l] / float64(events) / 1e3
		}
		out[layerNames[l]] = v
	}
	return out
}

// covered returns how much of [lo, hi) the union of spans covers.
func covered(lo, hi int64, spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var sum, curS, curE int64
	open := false
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b <= a {
			continue
		}
		if open && a <= curE {
			curE = max(curE, b)
			continue
		}
		if open {
			sum += curE - curS
		}
		curS, curE, open = a, b, true
	}
	if open {
		sum += curE - curS
	}
	return float64(sum)
}

// write dumps the spans as tab-separated lines (id, layer, start, end in
// unix nanos) to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# id\tlayer\tstart_ns\tend_ns\t(dropped %d)\n", t.dropped.Load())
	for _, s := range t.spans() {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", s.id, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func nowNs() int64 { return time.Now().UnixNano() }
