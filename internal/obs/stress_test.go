package obs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/prov"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/window"
)

// buildObsPipeline assembles the linear src -> stage1..3 -> sink pipeline the
// observability tests run: a back-dated source so every event is immediately
// due, passthrough stages so each external event is one wave with exactly
// five hops.
func buildObsPipeline(events int, stageDelay time.Duration) (*model.Workflow, *actors.Collect) {
	wf := model.NewWorkflow("obswf")
	src := actors.NewGenerator("src", time.Now().Add(-time.Hour), time.Millisecond, events,
		func(i int) value.Value { return value.Int(int64(i)) })
	stage := func(name string) *actors.Func {
		return actors.NewFunc(name, window.Passthrough(),
			func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
				if stageDelay > 0 {
					time.Sleep(stageDelay)
				}
				for _, tok := range w.Tokens() {
					emit(tok)
				}
				return nil
			})
	}
	s1, s2, s3 := stage("stage1"), stage("stage2"), stage("stage3")
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, s1, s2, s3, sink)
	wf.MustConnect(src.Out(), s1.In())
	wf.MustConnect(s1.Out(), s2.In())
	wf.MustConnect(s2.Out(), s3.In())
	wf.MustConnect(s3.Out(), sink.In())
	return wf, sink
}

// TestHopStoreUnderParallelExecutor races the engine's hop store and the
// telemetry registry against an 8-worker parallel run: directors record
// hops and histogram samples from every worker while reader goroutines
// hammer the lookup and scrape paths. Run under -race this is the
// data-race proof for the hot-path Record against concurrent queries;
// afterwards it checks every wave's lineage is the full five-hop actor
// path in order.
func TestHopStoreUnderParallelExecutor(t *testing.T) {
	const events = 300
	// 5 hops per wave stay far inside the store's default retention, so
	// eviction cannot eat a lineage.
	eng := obs.NewEngine(obs.Options{SampleRate: 1})
	st := stats.NewRegistry()
	wf, sink := buildObsPipeline(events, 0)
	d := stafilos.NewParallelDirector(sched.NewFIFO(),
		stafilos.Options{SourceInterval: 5, Stats: st, Obs: eng}, 8)
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	eng.Watch(wf.Name(), wf, st, d)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, ref := range eng.Prov().Recent(50) {
					eng.Prov().Wave(ref.Root, ref.RootSeq)
				}
				if err := eng.Registry().WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}

	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(done)
	readers.Wait()

	if len(sink.Tokens) != events {
		t.Fatalf("sink got %d events, want %d", len(sink.Tokens), events)
	}

	// Every wave was sampled and the store holds them all: every wave must
	// show the complete lineage.
	want := []string{"src", "stage1", "stage2", "stage3", "sink"}
	refs := eng.Prov().Recent(0)
	if len(refs) == 0 {
		t.Fatal("no waves recorded")
	}
	full := 0
	for _, ref := range refs {
		id := obs.FormatWaveID(ref.Root, ref.RootSeq)
		hops := eng.Prov().Wave(ref.Root, ref.RootSeq)
		if len(hops) != len(want) {
			continue
		}
		ok := true
		for i, h := range hops {
			if h.Actor != want[i] {
				ok = false
				break
			}
		}
		if !ok {
			t.Errorf("wave %s path out of order: %v", id, actorsOf(hops))
			continue
		}
		full++
		// Downstream hops carry the trigger wave and a non-negative queue wait.
		for _, h := range hops[1:] {
			if h.In.Root != ref.Root {
				t.Errorf("wave %s: hop %s In.Root = %d", id, h.Actor, h.In.Root)
			}
			if h.QueueWait < 0 {
				t.Errorf("wave %s: hop %s negative queue wait %v", id, h.Actor, h.QueueWait)
			}
		}
	}
	if full != events {
		t.Errorf("complete five-hop lineages: %d, want %d", full, events)
	}
}

// TestOneHopRecordPerSampledFiring pins the single hop record: an engine
// configured with nothing but a sample rate serves the same lineage from
// /trace/ and /provenance, because both read the one store, and the store
// holds exactly one write per sampled firing.
func TestOneHopRecordPerSampledFiring(t *testing.T) {
	const events = 40
	eng := obs.NewEngine(obs.Options{SampleRate: 1})
	st := stats.NewRegistry()
	wf, sink := buildObsPipeline(events, 0)
	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{SourceInterval: 5, Stats: st, Obs: eng})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	eng.Watch(wf.Name(), wf, st, d)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sink.Tokens) != events {
		t.Fatalf("sink got %d events, want %d", len(sink.Tokens), events)
	}

	// One hop per sampled firing: every downstream firing is one hop, and a
	// source firing is one hop per wave it starts (one wave per event).
	want := int64(events)
	for _, na := range st.SnapshotSorted() {
		if na.Name != "src" {
			want += na.Actor.Invocations
		}
	}
	if got := eng.Prov().Stats().Recorded; got != want || want != 5*events {
		t.Errorf("store recorded %d hops for %d sampled firings (want %d)", got, want, 5*events)
	}

	addr, err := eng.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	base := "http://" + addr

	type traceHop struct {
		Actor string `json:"actor"`
		In    string `json:"in"`
		Out   string `json:"out"`
		Start string `json:"start"`
	}
	type traceWave struct {
		ID    string     `json:"id"`
		Spans []traceHop `json:"spans"`
	}
	var idx struct {
		Waves []struct {
			ID string `json:"id"`
		} `json:"waves"`
	}
	body, code := get(t, base+"/trace/?limit=5")
	if code != http.StatusOK || json.Unmarshal([]byte(body), &idx) != nil || len(idx.Waves) != 5 {
		t.Fatalf("/trace/?limit=5 = %d %s", code, body)
	}
	for _, ref := range idx.Waves {
		id := ref.ID
		root, _, _, err := obs.ParseWaveID(id)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			Waves []traceWave `json:"waves"`
		}
		body, code = get(t, base+"/trace/"+id)
		if code != http.StatusOK || json.Unmarshal([]byte(body), &tr) != nil || len(tr.Waves) != 1 {
			t.Fatalf("/trace/%s = %d %s", id, code, body)
		}
		var pv struct {
			Wave struct {
				ID   string     `json:"id"`
				Hops []traceHop `json:"hops"`
			} `json:"wave"`
		}
		body, code = get(t, base+"/provenance?wave="+id)
		if code != http.StatusOK || json.Unmarshal([]byte(body), &pv) != nil {
			t.Fatalf("/provenance?wave=%s = %d %s", id, code, body)
		}
		if !reflect.DeepEqual(tr.Waves[0].Spans, pv.Wave.Hops) || len(pv.Wave.Hops) != 5 {
			t.Errorf("wave %s: /trace/ lists %+v, /provenance returns %+v", id, tr.Waves[0].Spans, pv.Wave.Hops)
		}

		// The bare t<root> form lists every wave with that root, this one
		// among them with the same hops.
		var byRoot struct {
			Waves []traceWave `json:"waves"`
		}
		body, code = get(t, base+"/trace/"+fmt.Sprintf("t%d", root))
		if code != http.StatusOK || json.Unmarshal([]byte(body), &byRoot) != nil {
			t.Fatalf("/trace/t%d = %d %s", root, code, body)
		}
		found := false
		for _, w := range byRoot.Waves {
			if w.ID == id {
				found = reflect.DeepEqual(w.Spans, tr.Waves[0].Spans)
			}
		}
		if !found {
			t.Errorf("/trace/t%d does not list wave %s with its hops: %s", root, id, body)
		}
	}
}

func actorsOf(hops []prov.Hop) []string {
	out := make([]string, len(hops))
	for i, h := range hops {
		out[i] = h.Actor
	}
	return out
}
