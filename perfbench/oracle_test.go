package main

import (
	"testing"
	"time"

	"repro/internal/lr"
	"repro/internal/value"
)

// perfectOutputs builds the outputs a correct engine emits for in: one toll
// per expected toll with the reference amount, and one justified alert per
// staged accident.
func perfectOutputs(in *lrInput) ([]capture, []value.Record) {
	val := lr.NewValidator(in.w)
	var tolls []capture
	for _, r := range in.w.Reports {
		k := keyOf(r.Car, r.Time)
		if _, ok := in.expect[k]; !ok {
			continue
		}
		tolls = append(tolls, capture{rec: value.NewRecord(
			"type", value.Str("toll"),
			"carID", value.Int(k.car),
			"seg", value.Int(int64(r.Seg)),
			"toll", value.Float(val.ExpectedToll(r.Seg, k.sec)),
			"time", value.Int(k.sec),
		)})
	}
	var alerts []value.Record
	for _, a := range in.w.Accidents {
		if a.ExitLane || a.Single {
			continue
		}
		alerts = append(alerts, value.NewRecord(
			"type", value.Str("accidentAlert"),
			"carID", value.Int(1),
			"seg", value.Int(int64(a.Seg)),
			"accidentSeg", value.Int(int64(a.Seg)),
			"time", value.Int(int64((a.Start+3*lr.ReportEvery)/time.Second)),
		))
	}
	return tolls, alerts
}

func TestLinearRoadOracle(t *testing.T) {
	in := genLR(7, 300, 150*time.Second)
	tolls, alerts := perfectOutputs(in)
	if len(tolls) == 0 || len(alerts) == 0 {
		t.Fatalf("workload too small: %d tolls, %d alerts", len(tolls), len(alerts))
	}
	if o := checkLR(in, tolls, alerts); o.failed() != 0 || o.staged == 0 {
		t.Fatalf("perfect outputs fail the oracle: %s", o)
	}

	cases := []struct {
		name   string
		tolls  []capture
		alerts []value.Record
	}{
		{"one toll removed", tolls[1:], alerts},
		{"one toll duplicated", append(append([]capture(nil), tolls...), tolls[0]), alerts},
		{"one toll amount wrong", withToll(tolls, 0, 1e6), alerts},
		{"alerts missing", tolls, nil},
	}
	for _, c := range cases {
		o := checkLR(in, c.tolls, c.alerts)
		if frac := float64(o.failed()) / float64(o.attempted()); frac <= 0 {
			t.Errorf("%s: failed_frac = %v, want > 0 (%s)", c.name, frac, o)
		}
	}
}

func withToll(tolls []capture, i int, amount float64) []capture {
	out := append([]capture(nil), tolls...)
	out[i].rec = out[i].rec.With("toll", value.Float(amount))
	return out
}

func TestPipelineOracle(t *testing.T) {
	in := genSynth(3, 1000)
	good := &pipeRun{count: in.wantCount, sum: in.wantSum}
	if _, f := good.check(in); f != 0 {
		t.Fatalf("correct run fails: %d", f)
	}
	for name, r := range map[string]*pipeRun{
		"one output missing": {count: in.wantCount - 1, sum: in.wantSum - 1},
		"checksum wrong":     {count: in.wantCount, sum: in.wantSum + 1},
		"bridge dropped":     {count: in.wantCount, sum: in.wantSum, dropped: 1},
		"bridge seq gap":     {count: in.wantCount, sum: in.wantSum, gaps: 1},
	} {
		if _, f := r.check(in); f == 0 {
			t.Errorf("%s: no failure counted", name)
		}
	}
}

func TestChunkedQuantiles(t *testing.T) {
	lat := make([]float64, 3*tollChunk+10)
	for i := range lat {
		lat[i] = 1
	}
	// One stall inside the second chunk.
	for i := tollChunk; i < tollChunk+50; i++ {
		lat[i] = 100
	}
	p50, p99 := chunkedQuantiles(lat)
	if p50 != 1 || p99 != 1 {
		t.Fatalf("p50, p99 = %v, %v; want 1, 1", p50, p99)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(16)
	tr.record(1, layerEvent, 0, 100)
	tr.record(1, layerIngest, 0, 10)
	tr.record(1, layerStage, 5, 30) // overlaps ingest: the union covers 0..30
	tr.record(1, layerStage, 50, 60)
	got := tr.selfTimes()
	if want := (100.0 - 40) / 1e3; got["event"] != want {
		t.Errorf("event self time = %v µs, want %v", got["event"], want)
	}
	if want := 35.0 / 1e3; got["stage"] != want {
		t.Errorf("stage time = %v µs, want %v", got["stage"], want)
	}
}
