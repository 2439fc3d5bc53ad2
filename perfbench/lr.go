package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/director"
	"repro/internal/lr"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/qos"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/stats"
	"repro/internal/value"
)

// Linear Road inputs. Cars enter over the first 30 s (RampSlope = rate/30),
// so reports arrive at an even rate instead of in bursts every 30 s. A car
// starts at a segment boundary and moves about 2,000 ft per report, so no
// toll is due in the first 60 s of event time: the paced configuration
// back-dates that minute as its warm-up backlog.
const (
	// The gated replay reaches minute 2 of event time, so tolls are checked
	// against statistics of a minute the replay itself computed, and ends
	// before the first staged accident is detectable (135 s), which a burst
	// replay misses (see map.json, findings).
	replayRate     = 2000.0 // reports/s of event time
	replayDuration = 130 * time.Second
	replayTimed    = 10 // timed replays per run, each cut at the end of its drain
	// A longer replay, run once in lr-replay's traced run with the feed's
	// epoch on the wall clock. It shows the two ways replayed outputs
	// disagree with the reference model (map.json, findings) in the row
	// lr.long_replay_failed_frac.
	longReplayRate     = 2000.0
	longReplayDuration = 150 * time.Second
	pacedRate          = 2500.0
	pacedWarmup        = 60 * time.Second
	pacedSpan          = 20 * time.Second // paced event time after the warm-up
	lrSetups           = 25               // workflow builds + director setups per run; setup_s is their median
	lrSlack            = 10 * time.Second
	drainIdleTicks     = 10 // watcher ticks with no pending work that end the replay's drain
)

type tollKey struct{ car, sec int64 }

func keyOf(car int, t time.Duration) tollKey { return tollKey{int64(car), int64(t / time.Second)} }

func spanID(k tollKey) uint64 { return uint64(k.car)<<32 | uint64(k.sec) }

// lrInput is one generated Linear Road workload, its reports' records
// (built once, outside every timed region, as a backlog sits ready), and
// its expected tolls. The reference model (lr.Validator) is built only to
// check a run's outputs, so it is not in the heap while the engine runs.
type lrInput struct {
	w      *lr.Workload
	recs   []value.Value
	expect map[tollKey]time.Duration // expected toll → its report's due offset
}

func genLR(seed int64, rate float64, dur time.Duration) *lrInput {
	w := lr.Generate(lr.GenConfig{Seed: seed, Duration: dur, RateCap: rate, RampSlope: rate / 30})
	in := &lrInput{w: w, recs: make([]value.Value, len(w.Reports)), expect: expectedTolls(w)}
	for i, r := range w.Reports {
		in.recs[i] = r.Record()
	}
	return in
}

func (in *lrInput) spanID(i int) uint64 {
	r := in.w.Reports[i]
	return spanID(keyOf(r.Car, r.Time))
}

// expectedTolls derives the toll notifications the workload must produce:
// one per consecutive pair of a car's reports whose segment changes.
func expectedTolls(w *lr.Workload) map[tollKey]time.Duration {
	last := map[int]lr.Report{}
	out := map[tollKey]time.Duration{}
	for _, r := range w.Reports {
		if prev, ok := last[r.Car]; ok && prev.Seg != r.Seg {
			out[keyOf(r.Car, r.Time)] = r.Time
		}
		last[r.Car] = r
	}
	return out
}

// capture is one toll taken off the probe tap.
type capture struct {
	rec value.Record
	at  int64 // unix nanos
}

// lrOracle checks captured outputs against the workload. Every shortfall
// counts as a failure: missing, unexpected or duplicate tolls, tolls the
// reference model disagrees with, unjustified alerts, staged accidents no
// alert reported, and (on the paced run) measured tolls past the deadline.
type lrOracle struct {
	expected, captured, charged          int // charged: captured tolls above 0
	missing, unexpected, wrong, badAlert int
	staged, alerted, late                int
}

func (o lrOracle) attempted() int64 { return int64(o.expected + o.staged) }

func (o lrOracle) failed() int64 {
	f := o.missing + o.unexpected + o.wrong + o.badAlert + (o.staged - o.alerted) + o.late
	return int64(min(f, o.expected+o.staged))
}

func (o lrOracle) String() string {
	return fmt.Sprintf("tolls expected %d captured %d (charged %d) missing %d unexpected %d wrong %d late %d; alerts unjustified %d; accidents alerted %d/%d",
		o.expected, o.captured, o.charged, o.missing, o.unexpected, o.wrong, o.late, o.badAlert, o.alerted, o.staged)
}

func checkLR(in *lrInput, tolls []capture, alerts []value.Record) lrOracle {
	o := lrOracle{expected: len(in.expect), captured: len(tolls)}
	seen := make(map[tollKey]bool, len(tolls))
	recs := make([]value.Record, len(tolls))
	for i, t := range tolls {
		recs[i] = t.rec
		if t.rec.Float("toll") > 0 {
			o.charged++
		}
		k := tollKey{t.rec.Int("carID"), t.rec.Int("time")}
		if _, ok := in.expect[k]; !ok || seen[k] {
			o.unexpected++
			continue
		}
		seen[k] = true
	}
	o.missing = len(in.expect) - len(seen)
	rep := lr.NewValidator(in.w).Validate(recs, alerts)
	o.wrong = rep.Tolls - rep.TollMatches - rep.TollBoundary
	o.badAlert = len(rep.AlertFailures)
	o.staged, o.alerted = rep.AccidentsStaged, rep.AccidentsAlerted
	return o
}

// lrRun is one Linear Road run's measurements.
type lrRun struct {
	setups       []float64 // s
	runStart     int64
	complete     time.Duration
	cpu          time.Duration
	allocs       uint64
	heapMB       float64
	tolls        []capture
	alerts       []value.Record
	stats        *stats.Registry
	wf           *model.Workflow
	epoch        time.Time
	depthMax     int
	lag          []float64
	gcCycles     float64
	gcFrac       float64
	qosP99       float64 // s, monitor's live toll p99 (paced, observed)
	sourceEvents int
	counted      int // source events cpu and allocs are divided by
	workers      int
	drainedAt    int64         // unix nanos: the warm-up backlog's queues first ran empty
	drain        time.Duration // replay: Run start until the work not waiting on a timeout was done
}

// lrMode selects how a Linear Road run is driven.
type lrMode struct {
	paced    bool // SCWF/QBS on the wall-clock schedule; else PNCWF replay
	observed bool // attach the Observer and QoSMonitor (paced only)
	lag      bool // record each report's source lag
	cut      bool // replay: end Run at the drain, not after the window timeouts
	wall     bool // replay: the feed's epoch on the wall clock, not the Unix epoch
	tr       *tracer
}

// runLR builds the workflow lrSetups times (the last one runs), then runs
// it once.
func runLR(in *lrInput, m lrMode) (*lrRun, error) {
	res := &lrRun{sourceEvents: len(in.w.Reports)}
	var feed *benchFeed
	var wf *model.Workflow
	var probes *lr.Probes
	var dir model.Director
	var seqDir *stafilos.Director
	var mon *qos.Monitor
	var epoch time.Time
	for i := 0; i < lrSetups; i++ {
		// Paced: the first minute is due at once, the rest on its
		// wall-clock schedule. Replay: every report is long due. lr.Build
		// files a minute's statistics under the Unix minute of its window's
		// start and a toll reads them back under the minute of the report's
		// time field, which counts from the workload's start; the two agree
		// only at the Unix epoch, which is also what lr.Setup.Run feeds. On
		// the wall clock (m.wall), a replay's tolls from minute 2 on find no
		// statistics.
		now := time.Now()
		switch {
		case m.paced:
			epoch = now.Add(-pacedWarmup)
		case m.wall:
			epoch = now.Add(-in.w.Config.Duration - 70*time.Second)
		default:
			epoch = time.Unix(0, 0)
		}
		t0 := time.Now()
		at := epoch
		feed = newBenchFeed(len(in.w.Reports), func(i int) actors.Item {
			return actors.Item{Tok: in.recs[i], Time: at.Add(in.w.Reports[i].Time)}
		}, in.spanID, m.tr, m.lag)
		db := lr.NewDB()
		var err error
		wf, probes, err = lr.Build(db, feed, epoch)
		if err != nil {
			return nil, err
		}
		mon = nil
		if m.paced {
			opts := stafilos.Options{Priorities: lr.Priorities(), SourceInterval: 5}
			var eng *obs.Engine
			if m.observed {
				eng = obs.NewEngine(obs.Options{SampleRate: 0.25, Latency: true})
				mon = qos.NewMonitor(eng, qos.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
				mon.AddSLO(lr.TollSLO())
				opts.Obs = eng
			}
			seqDir = stafilos.NewDirector(sched.NewQBS(0), opts)
			dir = seqDir
			if err := dir.Setup(wf); err != nil {
				return nil, err
			}
			if eng != nil {
				eng.Watch("LinearRoad", wf, seqDir.Stats(), seqDir)
				eng.WatchResponses(probes.Toll, probes.Accident)
			}
		} else {
			dir = director.NewPNCWF(director.PNCWFOptions{})
			if err := dir.Setup(wf); err != nil {
				return nil, err
			}
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}

	tr := m.tr
	var tollsIn atomic.Int64
	res.tolls = make([]capture, 0, len(in.expect))
	probes.TollProbe.SetTap(func(tok value.Value) {
		now := nowNs()
		rec, ok := tok.(value.Record)
		if !ok {
			return
		}
		res.tolls = append(res.tolls, capture{rec: rec, at: now})
		k := tollKey{rec.Int("carID"), rec.Int("time")}
		if off, ok := in.expect[k]; ok {
			tollsIn.Add(1)
			if tr != nil {
				tr.record(spanID(k), layerTap, now, nowNs())
				due := max(epoch.Add(off).UnixNano(), res.runStart)
				tr.record(spanID(k), layerEvent, due, nowNs())
			}
		}
	})
	probes.AccidentProbe.SetTap(func(tok value.Value) {
		if rec, ok := tok.(value.Record); ok {
			res.alerts = append(res.alerts, rec)
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	runtime.GC()
	heap := startHeapSampler()
	g0 := readGC()
	reg := startRegion()
	res.runStart = reg.wall.UnixNano()
	feed.floor = res.runStart

	// A watcher samples the run every 2 ms. On the replay it ends the
	// timed region once every expected toll is out and no receiver has
	// held pending work for drainIdleTicks (what is left waits on window
	// timeouts), then forces one collection, so peak_heap_mb reads the
	// live heap where retention peaks rather than wherever the collector's
	// cycles happened to fall; a cut replay's run ends there.
	// On the paced run it finds when the warm-up backlog drained (the
	// queues first ran empty; steady-state CPU and allocations count from
	// there) and stops the run once every expected toll has arrived and
	// the queues are empty, instead of waiting out the window timeouts.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var stopped atomic.Bool
	var depthMax, drainedAt int64
	end, endGC := region{}, gcCounters{}
	steady, steadyFrom := reg, int64(0)
	dirStats := dir.(interface{ Stats() *stats.Registry }).Stats()
	var pending []interface{ Pending() bool }
	for _, p := range wf.InputPorts() {
		if r, ok := p.Receiver().(interface{ Pending() bool }); ok {
			pending = append(pending, r)
		}
	}
	reports := in.w.Reports
	backlog := int64(sort.Search(len(reports), func(i int) bool { return epoch.Add(reports[i].Time).UnixNano() >= res.runStart }))
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var exhaustedAt time.Time
		idle := 0
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			all := tollsIn.Load() == int64(len(in.expect))
			if !m.paced {
				if !all || anyPending(pending) {
					idle = 0
					continue
				}
				if idle++; idle == drainIdleTicks {
					end, endGC = startRegion(), readGC()
					runtime.GC()
					heap.sample()
					if m.cut {
						stopped.Store(true)
						cancel()
					}
					return
				}
				continue
			}
			depth := 0
			seqDir.ActorQueueDepths(func(_ string, ready, buffered int) { depth += ready + buffered })
			depthMax = max(depthMax, int64(depth))
			if depth == 0 && drainedAt == 0 && depthMax > 0 && feed.taken.Load() >= backlog {
				steady, steadyFrom = startRegion(), feed.taken.Load()
				drainedAt = steady.wall.UnixNano()
			}
			if !feed.exhausted() {
				continue
			}
			if exhaustedAt.IsZero() {
				exhaustedAt = time.Now()
			}
			if (all && depth == 0) || time.Since(exhaustedAt) > lrSlack {
				stopped.Store(true)
				cancel()
				return
			}
		}
	}()
	err := dir.Run(ctx)
	res.complete = time.Since(reg.wall)
	close(stop)
	wg.Wait()
	if end.wall.IsZero() {
		end, endGC = startRegion(), readGC()
	}
	res.drain = end.wall.Sub(reg.wall)
	res.cpu, res.allocs = end.cpu-steady.cpu, end.allocs-steady.allocs
	res.counted = res.sourceEvents - int(steadyFrom)
	res.gcCycles, res.gcFrac = gcDelta(g0, endGC)
	res.heapMB = heap.Stop()
	if err != nil && !(stopped.Load() && err == context.Canceled) {
		return nil, fmt.Errorf("linear road run: %w", err)
	}
	res.depthMax = int(depthMax)
	res.drainedAt = drainedAt
	res.lag = feed.lag
	res.stats = dirStats
	res.wf, res.epoch = wf, epoch
	res.workers = 1
	if !m.paced {
		res.workers = runtime.GOMAXPROCS(0)
	}
	if mon != nil {
		for _, s := range mon.Snapshot().Sinks {
			if s.Sink == "TollNotification" {
				res.qosP99 = s.P99Seconds
			}
		}
	}
	return res, nil
}

// anyPending reports whether any receiver still holds undelivered work:
// raw events, ready windows or a consumer mid-firing. Events buffered in
// open windows do not count; they wait for a later event or a timeout.
func anyPending(rs []interface{ Pending() bool }) bool {
	for _, r := range rs {
		if r.Pending() {
			return true
		}
	}
	return false
}

// latencies returns the expected tolls' latencies in ms, from each toll's
// due time (epoch), in due-time order, leaving out tolls due before from,
// and how many took longer than the notification deadline.
func (r *lrRun) latencies(in *lrInput, epoch func(k tollKey) int64, from int64) (lat []float64, late int) {
	type sample struct {
		due int64
		ms  float64
	}
	var samples []sample
	for _, t := range r.tolls {
		k := tollKey{t.rec.Int("carID"), t.rec.Int("time")}
		if _, ok := in.expect[k]; !ok {
			continue
		}
		due := epoch(k)
		if due < from {
			continue
		}
		ms := float64(t.at-due) / 1e6
		samples = append(samples, sample{due, ms})
		if ms > float64(lr.NotificationDeadline.Milliseconds()) {
			late++
		}
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].due < samples[j].due })
	lat = make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.ms
	}
	return lat, late
}

func lastToll(r *lrRun) int64 {
	var last int64
	for _, t := range r.tolls {
		last = max(last, t.at)
	}
	return last
}

// lrFigures reduces a run to the end-to-end metrics and its oracle.
func lrFigures(in *lrInput, r *lrRun, paced bool) (map[string]float64, lrOracle, []float64) {
	o := checkLR(in, r.tolls, r.alerts)
	var lat []float64
	if paced {
		epoch := r.epoch.UnixNano()
		due := func(k tollKey) int64 { return epoch + int64(in.expect[k]) }
		from := max(r.drainedAt, r.runStart)
		lat, o.late = r.latencies(in, due, from)
	} else {
		lat, _ = r.latencies(in, func(tollKey) int64 { return r.runStart }, 0)
	}
	p50, p99 := quantile(lat, 0.5), quantile(lat, 0.99)
	if paced {
		p50, p99 = chunkedQuantiles(lat)
	}
	m := map[string]float64{
		"setup_s":          median(r.setups),
		"events_per_s":     float64(r.sourceEvents) / (float64(lastToll(r)-r.runStart) / 1e9),
		"complete_s":       r.complete.Seconds(),
		"latency_p50_ms":   p50,
		"latency_p99_ms":   p99,
		"allocs_per_event": float64(r.allocs) / float64(r.counted),
		"cpu_us_per_event": float64(r.cpu.Microseconds()) / float64(r.counted),
		"peak_heap_mb":     r.heapMB,
	}
	return m, o, lat
}

// tollChunk is how many consecutive tolls (in due-time order) one
// percentile is taken over on the paced run: enough for ten beyond the p99.
const tollChunk = 1000

// chunkedQuantiles splits the paced run's toll latencies, in due-time
// order, into chunks of tollChunk and returns the medians of the chunks'
// p50 and p99. Each chunk is a few seconds of steady state; the median
// over chunks keeps a one-off stall in one chunk from deciding the run's
// figure, which the per-layer max row still shows.
func chunkedQuantiles(lat []float64) (p50, p99 float64) {
	if len(lat) < 2*tollChunk {
		return quantile(lat, 0.5), quantile(lat, 0.99)
	}
	var c50, c99 []float64
	for i := 0; i+tollChunk <= len(lat); i += tollChunk {
		end := i + tollChunk
		if len(lat)-end < tollChunk {
			end = len(lat)
		}
		c50 = append(c50, quantile(lat[i:end], 0.5))
		c99 = append(c99, quantile(lat[i:end], 0.99))
	}
	return median(c50), median(c99)
}

func pacedInput(seed int64) *lrInput { return genLR(seed, pacedRate, pacedWarmup+pacedSpan) }

func replayInput(cfg config) *lrInput { return genLR(cfg.seed, replayRate, replayDuration) }

func lrE2E(in *lrInput, m lrMode) (*outcome, *lrRun, error) {
	r, err := runLR(in, m)
	if err != nil {
		return nil, nil, err
	}
	figs, o, lat := lrFigures(in, r, m.paced)
	out := &outcome{attempted: o.attempted(), failed: o.failed(), metrics: figs}
	out.notef("oracle: %s", o)
	out.notef("%d reports; %d toll latencies measured (p50 %.2f ms, p99 %.2f ms, max %.2f ms)",
		r.sourceEvents, len(lat), quantile(lat, 0.5), quantile(lat, 0.99), quantile(lat, 1))
	if m.paced {
		out.notef("warm-up backlog drained %.2f s after Run start", float64(r.drainedAt-r.runStart)/1e9)
	}
	return out, r, nil
}

// lrReplay replays the workload once in full, which warms the process and
// gives complete_s, then replayTimed times cut at the end of the drain,
// and reports the median of each other metric over the cut replays. What
// follows the drain is the window-timeout tail, about 10 s in which no
// toll is due, so a cut replay takes about 2 s. Every replay's outputs are
// checked: the full replay's all of them, a cut replay's every expected
// toll and whatever else came out before the cut. The count is fixed, not
// set by --seconds, so that a change in a replay's length does not change
// how many warm replays the medians cover.
func lrReplay(cfg config) (*outcome, error) {
	in := replayInput(cfg)
	out := &outcome{}
	per := map[string][]float64{}
	for n := 0; n <= replayTimed; n++ {
		o, _, err := lrE2E(in, lrMode{cut: n > 0})
		if err != nil {
			return nil, err
		}
		out.attempted += o.attempted
		out.failed += o.failed
		if n == 0 {
			out.set("complete_s", o.metrics["complete_s"])
			out.notef("full replay (gives complete_s only): %s", o.notes[0])
			continue
		}
		out.notes = append(out.notes, o.notes...)
		for k, v := range o.metrics {
			per[k] = append(per[k], v)
		}
	}
	for k, vs := range per {
		if k != "complete_s" {
			out.set(k, median(vs))
		}
	}
	return out, nil
}

// lrReplayTraced runs the replay untraced (the overhead baseline and the
// director's counters) and traced, then the paced configuration with and
// without its observability stack, then the long replay, then the layer
// microbenchmarks.
func lrReplayTraced(cfg config) (*outcome, error) {
	in := replayInput(cfg)
	base, r, err := lrE2E(in, lrMode{})
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: base.attempted, failed: base.failed}
	_, _, lat := lrFigures(in, r, false)
	out.set("bench.latency_samples", float64(len(lat)))
	out.set("bench.latency_max_ms", quantile(lat, 1))
	out.set("runtime.gc_cycles", r.gcCycles)
	out.set("runtime.gc_cpu_frac", r.gcFrac)
	setDirectorRows(out, r.stats, r.wf, r.complete, r.workers)
	out.set("lr.drain_s", r.drain.Seconds())

	tr := newTracer(4 * len(in.w.Reports))
	traced, _, err := lrE2E(in, lrMode{tr: tr})
	if err != nil {
		return nil, err
	}
	out.attempted += traced.attempted
	out.failed += traced.failed
	out.set("bench.trace_overhead_frac", base.metrics["events_per_s"]/traced.metrics["events_per_s"]-1)
	setSelfTimes(out, tr)
	if err := tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.tsv", cfg.name, cfg.seed))); err != nil {
		return nil, err
	}
	if err := pacedRows(cfg, out); err != nil {
		return nil, err
	}

	// Replayed on the wall clock past minute 2 and past the first
	// detectable accident, the engine's outputs disagree with the reference
	// model. This row measures by how much; the workload is not built to
	// fail, so it does not count in the run's failed outputs.
	long, _, err := lrE2E(genLR(cfg.seed, longReplayRate, longReplayDuration), lrMode{wall: true})
	if err != nil {
		return nil, err
	}
	out.set("lr.long_replay_failed_frac", float64(long.failed)/float64(long.attempted))
	out.notef("long replay (%.0f s at %.0f reports/s): %s", longReplayDuration.Seconds(), longReplayRate, long.notes[0])
	return out, layerSuite(cfg, out)
}

// pacedRows measures the paced configuration's per-layer rows: the open
// loop's source lag, the scheduler's ready-queue depth, the QoSMonitor's
// agreement with the benchmark, and the stacked cost of the observability
// stack (the same run with the Observer and QoSMonitor detached).
func pacedRows(cfg config, out *outcome) error {
	in := pacedInput(cfg.seed)
	obsd, r, err := lrE2E(in, lrMode{paced: true, observed: true, lag: true})
	if err != nil {
		return err
	}
	bare, _, err := lrE2E(in, lrMode{paced: true})
	if err != nil {
		return err
	}
	out.attempted += obsd.attempted + bare.attempted
	out.failed += obsd.failed + bare.failed
	out.notes = append(out.notes, obsd.notes...)
	out.notef("paced run: latency_p50_ms %.3f latency_p99_ms %.3f cpu_us_per_event %.2f allocs_per_event %.1f",
		obsd.metrics["latency_p50_ms"], obsd.metrics["latency_p99_ms"], obsd.metrics["cpu_us_per_event"], obsd.metrics["allocs_per_event"])
	out.set("obs.stacked_cost_frac", obsd.metrics["cpu_us_per_event"]/bare.metrics["cpu_us_per_event"]-1)
	out.set("stafilos.ready_depth_max", float64(r.depthMax))
	// Only items due once the warm-up backlog drained: before that the
	// lag is the catch-up, not the generator running late.
	from := sort.Search(len(in.w.Reports), func(i int) bool {
		return r.epoch.Add(in.w.Reports[i].Time).UnixNano() >= r.drainedAt
	})
	lag := r.lag[min(from, len(r.lag)):]
	out.set("actors.source_lag_p50_ms", quantile(lag, 0.5))
	out.set("actors.source_lag_p99_ms", quantile(lag, 0.99))

	// The monitor sees every toll, warm-up included, timed from its event
	// time: compare it with the benchmark's p99 over the same tolls.
	all, _ := r.latencies(in, func(k tollKey) int64 { return r.epoch.UnixNano() + int64(in.expect[k]) }, 0)
	own := quantile(all, 0.99) / 1e3
	ratio := r.qosP99 / own
	out.set("obs.qos_toll_p99_ratio", ratio)
	if ratio < 0.5 || ratio > 2 {
		out.failed++
		out.notef("QoSMonitor toll p99 %.3f s is outside a factor two of the benchmark's %.3f s", r.qosP99, own)
	}
	return nil
}

// setDirectorRows reports the director's firing counters over the
// workflow's top-level actors, from the director's stats registry, and
// each of the twelve Linear Road actors' share of the cost.
func setDirectorRows(out *outcome, st *stats.Registry, wf *model.Workflow, wall time.Duration, workers int) {
	var firings, consumed int64
	var busy time.Duration
	snap := st.Snapshot()
	for _, a := range wf.Actors() {
		s := snap[a.Name()]
		firings += s.Invocations
		consumed += s.InputEvents
		busy += s.TotalCost
	}
	out.set("director.firings", float64(firings))
	out.set("director.events_per_firing", float64(consumed)/float64(max(firings, 1)))
	out.set("director.busy_frac", busy.Seconds()/(wall.Seconds()*float64(workers)))
	if wf.Name() != "LinearRoad" {
		return
	}
	for n := range lr.Priorities() {
		out.set("lr.cost_share."+n, snap[n].TotalCost.Seconds()/max(busy.Seconds(), 1e-9))
	}
}
