// Command perfbench is the engine's end-to-end and per-layer benchmark. It
// runs one workload against the engine's packages, checks the workload's
// outputs, and prints its metrics by name and unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of untraced runs;
// with -trace 1 they are the per-layer metrics of a traced run, which times
// calls into each layer from this program's own code and writes its spans
// to .bench_build/traces/. BENCHMARK.json at the repository root lists the
// workloads and metrics, and map.json beside this file says which layer
// metric should move which end-to-end metric.
//
// Run it through run.py, which builds it inside the checkout:
//
//	python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	outDir  string // where traced runs write their spans
	name    string
}

// outcome is what a workload reports: its correctness counts and its
// metrics (end-to-end when untraced, per-layer when traced).
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	run    func(cfg config) (*outcome, error)
	traced func(cfg config) (*outcome, error)
}

var workloads = map[string]workload{
	"lr-replay": {run: lrReplay, traced: lrReplayTraced},
	"pipeline":  {run: pipelineE2E, traced: pipelineTraced},
	"bridged":   {run: bridgedE2E, traced: bridgedTraced},
}

func main() {
	name := flag.String("workload", "", "workload: lr-replay, pipeline or bridged")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long one run measures on pipeline and bridged; lr-replay runs a fixed number of replays")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision, for the machine block")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, outDir: filepath.Join(".bench_build", "traces"), name: *name}
	machine := map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit, "seed": *seed,
		"workload": *name, "seconds": *seconds, "trace": *trace,
	}
	mb, _ := json.Marshal(machine)
	fmt.Printf("machine %s\n", mb)

	spec, err := loadSpec("BENCHMARK.json", filepath.Join("perfbench", "map.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	run, want, kind := w.run, spec.EndToEnd, "end-to-end"
	if *trace == 1 {
		run, want, kind = w.traced, spec.PerLayer, "per-layer"
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range out.notes {
		fmt.Printf("note %s\n", n)
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok && *trace == 1 && !spec.measuredOn(m.Name, *name) {
			v, ok = 0, true
			fmt.Printf("note %s does not apply to %s; reported as 0\n", m.Name, *name)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s metric %s\n", *name, kind, m.Name)
			os.Exit(1)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	res.Correct = out.attempted > 0 && out.failed == 0
	frac := 0.0
	if out.attempted > 0 {
		frac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("%-34s %14.6g %s\n", "failed_frac", frac, "ratio")
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// spec is what the program reads from BENCHMARK.json, the metric names
// and units it must print, and from map.json, which workloads measure each
// per-layer metric.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
	layerMap map[string]struct {
		MeasuredOn []string `json:"measured_on"`
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(benchPath, mapPath string) (*spec, error) {
	var s spec
	if err := readJSON(benchPath, &s); err != nil {
		return nil, err
	}
	var m struct {
		PerLayer map[string]struct {
			MeasuredOn []string `json:"measured_on"`
		} `json:"per_layer"`
	}
	if err := readJSON(mapPath, &m); err != nil {
		return nil, err
	}
	s.layerMap = m.PerLayer
	return &s, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read benchmark spec: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// measuredOn reports whether map.json says workload's traced run measures
// the per-layer metric; a metric missing from the map applies everywhere.
func (s *spec) measuredOn(metric, workload string) bool {
	e, ok := s.layerMap[metric]
	if !ok {
		return true
	}
	for _, w := range e.MeasuredOn {
		if w == "all" || w == workload {
			return true
		}
	}
	return false
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
