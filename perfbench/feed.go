package main

import (
	"sync/atomic"

	"repro/internal/actors"
)

// benchFeed replays n items into a source actor, building each with item
// as the source reaches it, so a backlog's tokens live in the heap only
// once ingested, as they would arriving from outside. In a traced run it
// also records each ingest as a span, and with lag set it records how late
// the source took each item (ingest time minus due time): the open loop's
// measure of how late the generator ran. An item due before floor (Run
// start) counts as due at floor: a backlog is due when the run begins.
type benchFeed struct {
	n     int
	item  func(i int) actors.Item
	id    func(i int) uint64 // span id
	pos   int
	cur   actors.Item
	built bool         // cur holds item(pos)
	taken atomic.Int64 // items ingested, for other goroutines
	floor int64        // unix nanos
	tr    *tracer
	lag   []float64 // ms per ingested item; nil unless traced or lag is set
}

func newBenchFeed(n int, item func(int) actors.Item, id func(int) uint64, tr *tracer, lag bool) *benchFeed {
	f := &benchFeed{n: n, item: item, id: id, tr: tr}
	if tr != nil || lag {
		f.lag = make([]float64, 0, n)
	}
	return f
}

// Peek implements actors.Feed.
func (f *benchFeed) Peek() (actors.Item, bool) {
	if f.pos >= f.n {
		return actors.Item{}, false
	}
	if !f.built {
		f.cur, f.built = f.item(f.pos), true
	}
	return f.cur, true
}

// Next implements actors.Feed.
func (f *benchFeed) Next() (actors.Item, bool) {
	var t0 int64
	if f.lag != nil {
		t0 = nowNs()
	}
	it, ok := f.Peek()
	if !ok {
		return it, false
	}
	i := f.pos
	f.pos++
	f.built = false
	f.cur = actors.Item{}
	f.taken.Store(int64(f.pos))
	if f.lag != nil {
		t1 := nowNs()
		f.tr.record(f.id(i), layerIngest, t0, t1)
		f.lag = append(f.lag, float64(t1-max(it.Time.UnixNano(), f.floor))/1e6)
	}
	return it, true
}

// Closed implements actors.Feed.
func (f *benchFeed) Closed() bool { return f.pos >= f.n }

// exhausted reports, from any goroutine, whether every item was ingested.
func (f *benchFeed) exhausted() bool { return f.taken.Load() == int64(f.n) }
