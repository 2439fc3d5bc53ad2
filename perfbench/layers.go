package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/lr"
	"repro/internal/model"
	"repro/internal/obs/prov"
	"repro/internal/ring"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/value"
	"repro/internal/window"
)

// layerSuite times each layer's public operations alone, from this
// program's code, on inputs made from the run's seed: the pipeline's
// tokens and a small Linear Road stream. Each figure is the median of
// layerReps repetitions.
func layerSuite(cfg config, out *outcome) error {
	ringRows(out)
	eventRows(out)
	synth := genSynth(cfg.seed, 50_000)
	lrIn := genLR(cfg.seed, 400, 150*time.Second)
	windowRows(out, synth, lrIn)
	if err := schedRows(out); err != nil {
		return err
	}
	relstoreRows(out, lrIn)
	valueRows(out, synth)
	provRows(out)
	return nil
}

const layerReps = 5

func ringRows(out *outcome) {
	spsc := ring.NewSPSC[int](1024)
	ns, _ := timeOp(layerReps, 1_000_000, func(i int) { spsc.TryPush(i); spsc.TryPop() })
	out.set("ring.spsc_pair_ns", ns)
	mpmc := ring.NewMPMC[int](1024)
	ns, _ = timeOp(layerReps, 1_000_000, func(i int) { mpmc.TryPush(i); mpmc.TryPop() })
	out.set("ring.mpmc_pair_ns", ns)

	var handoff []float64
	for r := 0; r < layerReps; r++ {
		handoff = append(handoff, spscHandoff(1_000_000))
	}
	out.set("ring.spsc_handoff_ns", median(handoff))

	var wake []float64
	for r := 0; r < layerReps; r++ {
		wake = append(wake, waiterPingPong(5_000))
	}
	out.set("ring.waiter_wake_us", median(wake))
}

// spscHandoff moves n elements from a producer goroutine to this one
// through an SPSC ring and returns the time per element.
func spscHandoff(n int) float64 {
	q := ring.NewSPSC[int](1024)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			if q.TryPush(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	for got := 0; got < n; {
		if _, ok := q.TryPop(); ok {
			got++
		} else {
			runtime.Gosched()
		}
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// waiterPingPong bounces a turn between two goroutines, each waking the
// other through a ring.Waiter, and returns the time of one wake-up (half a
// round trip).
func waiterPingPong(rounds int) float64 {
	a, b := ring.NewWaiter(), ring.NewWaiter()
	var turn atomic.Int64
	await := func(w *ring.Waiter, want int64) {
		for {
			g := w.Gen()
			if turn.Load() == want {
				return
			}
			w.Wait(g, 0)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < int64(rounds); i++ {
			await(b, 2*i+1)
			turn.Store(2*i + 2)
			a.Wake()
		}
	}()
	start := time.Now()
	for i := int64(0); i < int64(rounds); i++ {
		turn.Store(2*i + 1)
		b.Wake()
		await(a, 2*i+2)
	}
	el := time.Since(start)
	wg.Wait()
	return float64(el.Microseconds()) / float64(2*rounds)
}

func eventRows(out *outcome) {
	pool := event.NewPool(1024)
	ns, allocs := timeOp(layerReps, 1_000_000, func(int) { pool.Release(pool.Get()) })
	out.set("event.pool_cycle_ns", ns)
	out.set("event.pool_cycle_allocs", allocs)

	// One firing as the directors run it: begin on the trigger, stamp one
	// output, finalize its wave-tag, end, and recycle the output.
	tk := event.NewTimekeeper()
	tk.SetPool(pool)
	root := tk.External(value.Int(1), time.Unix(0, 0))
	child := tk.External(value.Int(2), time.Unix(0, 0))
	tk.BeginFiring(root)
	child = tk.Stamp(value.Int(2), time.Unix(1, 0)) // a depth-1 trigger, as inside a pipeline
	tk.FinalizeFiring()
	tok := value.Int(3)
	fallback := time.Unix(2, 0)
	ns, allocs = timeOp(layerReps, 1_000_000, func(int) {
		tk.BeginFiring(child)
		ev := tk.Stamp(tok, fallback)
		tk.FinalizeFiring()
		tk.EndFiring()
		pool.Release(ev)
	})
	out.set("event.firing_cycle_ns", ns)
	out.set("event.firing_cycle_allocs", allocs)
}

// windowRows feeds each operator the workload's own stream, in event-time
// order with engine time = event time, as a receiver would.
func windowRows(out *outcome, synth *synthInput, lrIn *lrInput) {
	tk := event.NewTimekeeper()
	base := time.Unix(1_000_000, 0)
	synthEvents := make([]*event.Event, len(synth.toks))
	for i, x := range synth.toks {
		synthEvents[i] = tk.External(value.Int(x), base.Add(time.Duration(i)*time.Microsecond))
	}
	var per []float64
	for r := 0; r < layerReps; r++ {
		op := window.New(window.Passthrough())
		start := time.Now()
		for _, ev := range synthEvents {
			op.Put(ev, ev.Time)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(len(synthEvents)))
	}
	out.set("window.passthrough_put_ns", median(per))

	// The Linear Road operators are stateful, so every repetition gets
	// fresh events (made outside the timed loop) and a fresh operator.
	lrEvents := func() []*event.Event {
		evs := make([]*event.Event, len(lrIn.w.Reports))
		for i, r := range lrIn.w.Reports {
			evs[i] = tk.External(lrIn.recs[i], base.Add(r.Time))
		}
		return evs
	}
	minute := window.Spec{Unit: window.Time, SizeDur: time.Minute, StepDur: time.Minute,
		GroupBy: []string{"carID", "xway", "dir", "seg"}, Timeout: 5 * time.Second}
	tuple2 := window.Spec{Unit: window.Tuples, Size: 2, Step: 1, GroupBy: []string{"carID"}}
	var minuteNs, tupleNs, recordsAllocs []float64
	groupsPeak := 0
	for r := 0; r < layerReps; r++ {
		evs := lrEvents()
		op := window.New(minute)
		var produced []*window.Window
		start := time.Now()
		for _, ev := range evs {
			produced = append(produced, op.Put(ev, ev.Time)...)
			if g := op.Groups(); g > groupsPeak {
				groupsPeak = g
			}
		}
		minuteNs = append(minuteNs, float64(time.Since(start).Nanoseconds())/float64(len(evs)))
		if len(produced) > 0 {
			before := mallocs()
			for _, w := range produced {
				_ = w.Records()
			}
			recordsAllocs = append(recordsAllocs, float64(mallocs()-before)/float64(len(produced)))
		}

		evs = lrEvents()
		op = window.New(tuple2)
		start = time.Now()
		for _, ev := range evs {
			op.Put(ev, ev.Time)
		}
		tupleNs = append(tupleNs, float64(time.Since(start).Nanoseconds())/float64(len(evs)))
	}
	out.set("window.lr_minute_put_ns", median(minuteNs))
	out.set("window.lr_tuple2_put_ns", median(tupleNs))
	out.set("window.lr_minute_groups_peak", float64(groupsPeak))
	out.set("window.records_allocs", median(recordsAllocs))
}

// nopActor is a schedulable actor with one input port.
type nopActor struct {
	model.Base
	in *model.Port
}

func newNopActor(name string) *nopActor {
	a := &nopActor{Base: model.NewBase(name)}
	a.Bind(a)
	a.in = a.Input("in")
	a.Output("out")
	return a
}

// schedRows runs a policy's enqueue → pick → fire-accounting cycle, the
// per-event work a director asks of its scheduler. QBS gets the Linear
// Road actor set with its Table 3 priorities.
func schedRows(out *outcome) error {
	names := make([]string, 0, len(lr.Priorities()))
	for n := range lr.Priorities() {
		names = append(names, n)
	}
	sort.Strings(names)
	cycle := func(s stafilos.Scheduler, prio map[string]int) (float64, error) {
		if err := s.Init(&stafilos.Env{Priorities: prio, SourceInterval: 5}); err != nil {
			return 0, fmt.Errorf("init %s: %w", s.Name(), err)
		}
		var acts []*nopActor
		for _, n := range names {
			a := newNopActor(n)
			acts = append(acts, a)
			s.Register(a, false)
		}
		tk := event.NewTimekeeper()
		items := make([]stafilos.ReadyItem, 4096)
		for i := range items {
			a := acts[i%len(acts)]
			ev := tk.External(value.Int(int64(i)), time.Unix(int64(i), 0))
			items[i] = stafilos.NewItem(a, a.in, &window.Window{Events: []*event.Event{ev}, Time: ev.Time, Wave: ev.Wave})
		}
		ns, _ := timeOp(layerReps, 500_000, func(i int) {
			s.Enqueue(items[i%len(items)])
			e := s.NextActor()
			if e == nil {
				s.IterationEnd()
				s.IterationBegin()
				return
			}
			e.Pop()
			s.ActorFired(e, 100*time.Microsecond, 1)
		})
		return ns, nil
	}
	qbs, err := cycle(sched.NewQBS(0), lr.Priorities())
	if err != nil {
		return err
	}
	fifo, err := cycle(sched.NewFIFO(), nil)
	if err != nil {
		return err
	}
	out.set("sched.qbs_cycle_ns", qbs)
	out.set("sched.fifo_cycle_ns", fifo)
	return nil
}

// relstoreRows drives lr.DB with the workload's own keys: the per-minute
// statistics writes the workflow makes, then the toll and accident reads
// each report makes, then one expiry pass.
func relstoreRows(out *outcome, in *lrInput) {
	type segMin struct {
		seg    int
		minute int64
	}
	cars := map[segMin]map[int]bool{}
	speed := map[segMin]float64{}
	for _, r := range in.w.Reports {
		k := segMin{r.Seg, int64(r.Time / time.Minute)}
		if cars[k] == nil {
			cars[k] = map[int]bool{}
		}
		cars[k][r.Car] = true
		speed[k] += r.Speed
	}
	keys := make([]segMin, 0, len(cars))
	for k := range cars {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].minute != keys[j].minute {
			return keys[i].minute < keys[j].minute
		}
		return keys[i].seg < keys[j].seg
	})
	lastMinute := keys[len(keys)-1].minute

	var carNs, avgNs, tollNs, aheadNs, expireMs []float64
	for r := 0; r < layerReps; r++ {
		db := lr.NewDB()
		for _, a := range in.w.Accidents {
			db.UpsertAccident(0, 0, a.Seg, a.Pos, int64(a.Start/time.Second))
		}
		start := time.Now()
		for _, k := range keys {
			db.RecordCarCount(0, 0, k.seg, k.minute, len(cars[k]))
		}
		carNs = append(carNs, float64(time.Since(start).Nanoseconds())/float64(len(keys)))
		start = time.Now()
		for _, k := range keys {
			db.RecordMinuteAvg(0, 0, k.seg, k.minute, speed[k]/float64(len(cars[k])))
		}
		avgNs = append(avgNs, float64(time.Since(start).Nanoseconds())/float64(len(keys)))

		reps := in.w.Reports
		start = time.Now()
		for _, rep := range reps {
			db.Toll(0, 0, rep.Seg, int64(rep.Time/time.Second))
		}
		tollNs = append(tollNs, float64(time.Since(start).Nanoseconds())/float64(len(reps)))
		start = time.Now()
		for _, rep := range reps {
			db.AccidentAhead(0, 0, rep.Seg, int64(rep.Time/time.Second))
		}
		aheadNs = append(aheadNs, float64(time.Since(start).Nanoseconds())/float64(len(reps)))

		start = time.Now()
		db.Expire(lastMinute*60, 300, 10)
		expireMs = append(expireMs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	out.set("relstore.record_car_count_ns", median(carNs))
	out.set("relstore.record_minute_avg_ns", median(avgNs))
	out.set("relstore.toll_ns", median(tollNs))
	out.set("relstore.accident_ahead_ns", median(aheadNs))
	out.set("relstore.expire_ms", median(expireMs))
}

// valueRows runs the binary codec over the bridged workload's tokens.
func valueRows(out *outcome, synth *synthInput) {
	toks := make([]value.Value, len(synth.toks))
	encoded := make([][]byte, len(toks))
	for i, x := range synth.toks {
		toks[i] = value.Int(x)
		encoded[i] = value.AppendBinary(nil, toks[i])
	}
	buf := make([]byte, 0, 64)
	ns, _ := timeOp(layerReps, len(toks), func(i int) { buf = value.AppendBinary(buf[:0], toks[i%len(toks)]) })
	out.set("value.encode_ns", ns)
	ns, allocs := timeOp(layerReps, len(toks), func(i int) { _, _, _ = value.DecodeBinary(encoded[i%len(encoded)]) })
	out.set("value.decode_ns", ns)
	out.set("value.decode_allocs", allocs)
}

// provRows records hops into a provenance store with default retention.
func provRows(out *outcome) {
	st := prov.NewStore(prov.Options{})
	now := time.Now()
	ns, _ := timeOp(layerReps, 500_000, func(i int) {
		st.Record(prov.Hop{Actor: "TollCalculation", Root: int64(i), RootSeq: uint64(i), Start: now, Consumed: 1, Produced: 1})
	})
	out.set("obs.prov_record_ns", ns)
}
