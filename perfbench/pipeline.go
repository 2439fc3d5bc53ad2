package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/director"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/window"
)

// synthInput is the synthetic pipeline's source stream. Each token packs
// the event's sequence number above 16 random low bits, so every stage can
// recover the span id from the token alone.
type synthInput struct {
	toks      []int64
	wantCount int64
	wantSum   int64
}

func genSynth(seed int64, n int) *synthInput {
	rng := rand.New(rand.NewSource(seed))
	in := &synthInput{toks: make([]int64, n)}
	for i := range in.toks {
		x := int64(i)<<16 | int64(rng.Intn(0x8000))
		in.toks[i] = x
		if y := mapStage(x); keepStage(y) {
			in.wantCount++
			in.wantSum += y
		}
	}
	return in
}

// The stages are trivial on purpose: the pipeline measures the engine's
// transport, not actor work.
func mapStage(x int64) int64 { return x + 1 }
func keepStage(x int64) bool { return x&3 != 0 }
func seqOf(x int64) uint64   { return uint64(x >> 16) }

// pipeOpts selects the director and instrumentation of one pipeline run.
type pipeOpts struct {
	// workers > 0 runs ParallelDirector with that many workers; 0 runs the
	// sequential SCWF director; pncwfWorkers runs the thread-based PNCWF.
	workers int
	bridged bool
	tr      *tracer
}

// pipeRun is what one pipeline run measured.
type pipeRun struct {
	setup, complete, toLast time.Duration
	cpu                     time.Duration
	allocs                  uint64
	count, sum              int64
	outAt                   []int64 // per output: unix nanos
	runStart                int64
	dropped, gaps, mark     int64
	firings, consumed       int64
	busy                    time.Duration
	workers, peak           int
	transit                 []float64 // ms, traced bridged runs only
	lag                     []float64 // ms, traced runs only
}

const pncwfWorkers = -1

func newPipeDirector(workers int) (model.Director, func() int) {
	opts := stafilos.Options{SourceInterval: 5}
	if workers == pncwfWorkers {
		return director.NewPNCWF(director.PNCWFOptions{}), func() int { return 0 }
	}
	if workers == 0 {
		return stafilos.NewDirector(sched.NewFIFO(), opts), func() int { return 1 }
	}
	d := stafilos.NewParallelDirector(sched.NewFIFO(), opts, workers)
	return d, d.PeakConcurrency
}

// runPipeline builds, sets up and runs the pipeline once over in.
func runPipeline(in *synthInput, o pipeOpts) (*pipeRun, error) {
	res := &pipeRun{outAt: make([]int64, 0, in.wantCount)}
	n := len(in.toks)
	// Every item is due before Run starts: the feed is a backlog.
	base := time.Now().Add(-time.Duration(n) * time.Microsecond)
	items := make([]actors.Item, n)
	for i, x := range in.toks {
		items[i] = actors.Item{Tok: value.Int(x), Time: base.Add(time.Duration(i) * time.Microsecond)}
	}
	feed := newBenchFeed(n, func(i int) actors.Item { return items[i] },
		func(i int) uint64 { return seqOf(in.toks[i]) }, o.tr, false)

	var sentAt []atomic.Int64
	if o.tr != nil && o.bridged {
		sentAt = make([]atomic.Int64, n)
	}
	tr := o.tr
	var transit []float64

	mapper := actors.NewFunc("map", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			for _, ev := range w.Events {
				t0 := nowNs()
				x := mapStage(int64(ev.Token.(value.Int)))
				emit(value.Int(x))
				if tr != nil {
					t1 := nowNs()
					tr.record(seqOf(x), layerStage, t0, t1)
					if sentAt != nil {
						sentAt[seqOf(x)].Store(t1)
					}
				}
			}
			return nil
		})
	filter := actors.NewFunc("filter", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			for _, ev := range w.Events {
				t0 := nowNs()
				x := int64(ev.Token.(value.Int))
				if sentAt != nil {
					sent := sentAt[seqOf(x)].Load()
					tr.record(seqOf(x), layerBridge, sent, t0)
					transit = append(transit, float64(t0-sent)/1e6)
				}
				if keepStage(x) {
					emit(ev.Token)
				}
				if tr != nil {
					tr.record(seqOf(x), layerStage, t0, nowNs())
				}
			}
			return nil
		})
	sink := actors.NewSink("sink", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window) error {
			now := nowNs()
			for _, ev := range w.Events {
				x := int64(ev.Token.(value.Int))
				res.count++
				res.sum += x
				res.outAt = append(res.outAt, now)
				if tr != nil {
					tr.record(seqOf(x), layerStage, now, nowNs())
					tr.record(seqOf(x), layerEvent, res.runStart, nowNs())
				}
			}
			return nil
		})

	setupStart := time.Now()
	src := actors.NewSource("src", feed, 0)
	var dirs []model.Director
	var wfs []*model.Workflow
	var peaks []func() int
	var recv *dist.Receiver
	workers := o.workers
	if !o.bridged {
		wf := model.NewWorkflow("pipeline")
		wf.MustAdd(src, mapper, filter, sink)
		wf.MustConnect(src.Out(), mapper.In())
		wf.MustConnect(mapper.Out(), filter.In())
		wf.MustConnect(filter.Out(), sink.In())
		d, peak := newPipeDirector(workers)
		dirs, wfs, peaks = append(dirs, d), append(wfs, wf), append(peaks, peak)
	} else {
		var err error
		recv, err = dist.Listen("bridge", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		wfA := model.NewWorkflow("ingest-node")
		send := dist.NewSender("bridge", recv.Addr())
		wfA.MustAdd(src, mapper, send)
		wfA.MustConnect(src.Out(), mapper.In())
		wfA.MustConnect(mapper.Out(), send.In())
		wfB := model.NewWorkflow("sink-node")
		wfB.MustAdd(recv, filter, sink)
		wfB.MustConnect(recv.Out(), filter.In())
		wfB.MustConnect(filter.Out(), sink.In())
		for _, wf := range []*model.Workflow{wfA, wfB} {
			d, peak := newPipeDirector(workers)
			dirs, wfs, peaks = append(dirs, d), append(wfs, wf), append(peaks, peak)
		}
	}
	for i, d := range dirs {
		if err := d.Setup(wfs[i]); err != nil {
			if recv != nil {
				recv.Wrapup()
			}
			return nil, fmt.Errorf("setup %s: %w", wfs[i].Name(), err)
		}
	}
	res.setup = time.Since(setupStart)

	runtime.GC()
	reg := startRegion()
	res.runStart = reg.wall.UnixNano()
	feed.floor = res.runStart
	err := runAll(dirs)
	res.complete = time.Since(reg.wall)
	res.cpu, res.allocs = reg.since()
	if err != nil {
		return nil, err
	}
	if len(res.outAt) > 0 {
		res.toLast = time.Duration(res.outAt[len(res.outAt)-1] - res.runStart)
	}
	if recv != nil {
		res.dropped, res.gaps, res.mark = recv.Dropped(), recv.SeqGaps(), recv.Watermark()
	}
	for _, d := range dirs {
		st := d.(interface{ Stats() *stats.Registry }).Stats()
		for _, a := range st.SnapshotSorted() {
			res.firings += a.Invocations
			res.consumed += a.InputEvents
			res.busy += a.TotalCost
		}
	}
	for _, p := range peaks {
		if v := p(); v > res.peak {
			res.peak = v
		}
	}
	res.workers = max(workers, 1) * len(dirs)
	if workers == pncwfWorkers {
		res.workers = runtime.GOMAXPROCS(0)
	}
	res.transit = transit
	res.lag = feed.lag
	return res, nil
}

// runAll runs the directors concurrently (one per node) and returns the
// first error. A node's Run returns once its sources are exhausted and its
// queues drained; the downstream node's bridge receiver is exhausted when
// the upstream sender closes.
func runAll(dirs []model.Director) error {
	if len(dirs) == 1 {
		return dirs[0].Run(context.Background())
	}
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for i, d := range dirs {
		wg.Add(1)
		go func(i int, d model.Director) {
			defer wg.Done()
			errs[i] = d.Run(context.Background())
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// check compares a run's outputs with the input's expected count and
// checksum; the bridge must neither drop nor skip a frame. It returns the
// number of expected outputs and how many of them failed.
func (r *pipeRun) check(in *synthInput) (attempted, failed int64) {
	attempted = in.wantCount
	if miss := in.wantCount - r.count; miss != 0 {
		failed += abs64(miss)
	}
	if r.sum != in.wantSum && failed == 0 {
		failed++
	}
	failed += r.dropped + r.gaps
	return attempted, min(failed, attempted)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Events per pipeline run: a run takes a fraction of a second, so one
// measurement holds dozens of runs and reports their medians. Every run
// queues its whole backlog at once, so the figure also sets the live heap.
const (
	pipelineEvents = 50_000
	bridgedEvents  = 50_000
)

func pipelineE2E(cfg config) (*outcome, error) {
	return synthE2E(cfg, pipeOpts{workers: runtime.GOMAXPROCS(0)}, pipelineEvents)
}

// The bridged pipeline runs one parallel worker per node, so the two nodes
// together use GOMAXPROCS workers like the single-node pipeline.
func bridgedE2E(cfg config) (*outcome, error) {
	return synthE2E(cfg, pipeOpts{workers: bridgedWorkers(), bridged: true}, bridgedEvents)
}

func bridgedWorkers() int { return max(1, runtime.GOMAXPROCS(0)/2) }

// synthSeries collects per-run figures and reduces them to medians.
type synthSeries struct {
	setup, evps, complete, p50, p99, worst, allocs, cpu, heap []float64
	samples                                                   int
}

func (s *synthSeries) add(r *pipeRun, n int) {
	s.setup = append(s.setup, r.setup.Seconds())
	s.evps = append(s.evps, float64(n)/r.toLast.Seconds())
	s.complete = append(s.complete, r.complete.Seconds())
	lat := make([]float64, len(r.outAt))
	for i, at := range r.outAt {
		lat[i] = float64(at-r.runStart) / 1e6
	}
	s.p50 = append(s.p50, quantile(lat, 0.5))
	s.p99 = append(s.p99, quantile(lat, 0.99))
	s.worst = append(s.worst, quantile(lat, 1))
	s.samples = len(lat)
	s.allocs = append(s.allocs, float64(r.allocs)/float64(n))
	s.cpu = append(s.cpu, float64(r.cpu.Microseconds())/float64(n))
}

// runSynth runs the pipeline until the time budget is spent (at least
// `min` measured runs) after one warm-up run, which fills caches and pools
// and is checked but not timed.
func runSynth(in *synthInput, o pipeOpts, budget time.Duration, minRuns int, out *outcome) (*synthSeries, *pipeRun, error) {
	var s synthSeries
	var last *pipeRun
	heap := startHeapSampler()
	defer heap.Stop()
	deadline := time.Now().Add(budget)
	for i := 0; i <= minRuns || time.Now().Before(deadline); i++ {
		heap.take()
		r, err := runPipeline(in, o)
		if err != nil {
			return nil, nil, err
		}
		s.heap = append(s.heap, heap.take())
		a, f := r.check(in)
		out.attempted += a
		out.failed += f
		if i > 0 {
			s.add(r, len(in.toks))
		}
		last = r
	}
	return &s, last, nil
}

func synthE2E(cfg config, o pipeOpts, n int) (*outcome, error) {
	in := genSynth(cfg.seed, n)
	out := &outcome{}
	s, _, err := runSynth(in, o, time.Duration(cfg.seconds*float64(time.Second)), 3, out)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", median(s.setup))
	out.set("events_per_s", median(s.evps))
	out.set("complete_s", median(s.complete))
	out.set("latency_p50_ms", median(s.p50))
	out.set("latency_p99_ms", median(s.p99))
	out.set("allocs_per_event", median(s.allocs))
	out.set("cpu_us_per_event", median(s.cpu))
	out.set("peak_heap_mb", median(s.heap[1:]))
	out.notef("%d measured runs of %d events; latency is per output from Run start (the whole feed is due then), %d outputs per run",
		len(s.evps), n, in.wantCount)
	return out, nil
}

func pipelineTraced(cfg config) (*outcome, error) {
	out, err := synthTraced(cfg, pipeOpts{workers: runtime.GOMAXPROCS(0)}, pipelineEvents)
	if err != nil {
		return nil, err
	}
	// The baselines that explain the pipeline's events_per_s: one parallel
	// worker, the sequential director, and the thread-based director.
	in := genSynth(cfg.seed, pipelineEvents)
	for _, b := range []struct {
		name    string
		workers int
	}{
		{"stafilos.events_per_s_workers1", 1},
		{"stafilos.events_per_s_seq", 0},
		{"director.pncwf_events_per_s", pncwfWorkers},
	} {
		s, _, err := runSynth(in, pipeOpts{workers: b.workers}, 0, 3, out)
		if err != nil {
			return nil, err
		}
		out.set(b.name, median(s.evps))
		out.notef("%s: allocs_per_event %.3f cpu_us_per_event %.3f", b.name, median(s.allocs), median(s.cpu))
	}
	return out, nil
}

func bridgedTraced(cfg config) (*outcome, error) {
	return synthTraced(cfg, pipeOpts{workers: bridgedWorkers(), bridged: true}, bridgedEvents)
}

// synthTraced measures the untraced pipeline three times as the overhead
// baseline, then runs it with spans recorded at every stage boundary, and
// adds the layer microbenchmarks.
func synthTraced(cfg config, o pipeOpts, n int) (*outcome, error) {
	in := genSynth(cfg.seed, n)
	out := &outcome{}
	g0 := readGC()
	base, _, err := runSynth(in, o, 0, 3, out)
	if err != nil {
		return nil, err
	}
	cycles, gcFrac := gcDelta(g0, readGC())
	out.set("runtime.gc_cycles", cycles/float64(len(base.evps)+1))
	out.set("runtime.gc_cpu_frac", gcFrac)
	out.set("bench.latency_samples", float64(base.samples))
	out.set("bench.latency_max_ms", median(base.worst))

	// Traced runs, each with fresh span storage; the last one's spans are
	// kept and written out.
	var tracedEvps []float64
	var last *pipeRun
	for i := 0; i < 3; i++ {
		o.tr = newTracer(6 * n)
		if last, err = runPipeline(in, o); err != nil {
			return nil, err
		}
		a, f := last.check(in)
		out.attempted += a
		out.failed += f
		tracedEvps = append(tracedEvps, float64(n)/last.toLast.Seconds())
	}
	out.set("bench.trace_overhead_frac", median(base.evps)/median(tracedEvps)-1)
	setSelfTimes(out, o.tr)
	if err := o.tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.tsv", cfg.name, cfg.seed))); err != nil {
		return nil, err
	}

	out.set("director.firings", float64(last.firings))
	out.set("director.events_per_firing", float64(last.consumed)/float64(last.firings))
	out.set("director.busy_frac", last.busy.Seconds()/(last.complete.Seconds()*float64(last.workers)))
	out.set("stafilos.peak_concurrency", float64(last.peak))
	out.set("actors.source_lag_p50_ms", quantile(last.lag, 0.5))
	out.set("actors.source_lag_p99_ms", quantile(last.lag, 0.99))
	if o.bridged {
		out.set("dist.transit_p99_ms", quantile(last.transit, 0.99))
		out.set("dist.recv_watermark", float64(last.mark))
		out.set("dist.dropped", float64(last.dropped))
		out.set("dist.seq_gaps", float64(last.gaps))
	}
	if err := layerSuite(cfg, out); err != nil {
		return nil, err
	}
	return out, nil
}

// setSelfTimes reports each traced layer's mean self time per event.
func setSelfTimes(out *outcome, tr *tracer) {
	for layer, us := range tr.selfTimes() {
		out.set("trace."+layer+"_self_us", us)
	}
	out.notef("trace: %d spans kept, %d dropped", len(tr.spans()), tr.dropped.Load())
}
