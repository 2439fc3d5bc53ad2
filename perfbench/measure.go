package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuNow returns the process's user+sys CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the cumulative heap allocation count. ReadMemStats stops
// the world, so it is called only at the edges of a timed region.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// region captures the process counters over one timed region.
type region struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
}

func startRegion() region {
	allocs := mallocs()
	return region{wall: time.Now(), cpu: cpuNow(), allocs: allocs}
}

// since returns the CPU time and allocation count spent since r began.
func (r region) since() (cpu time.Duration, allocs uint64) {
	cpu = cpuNow() - r.cpu
	return cpu, mallocs() - r.allocs
}

// heapSampler tracks the peak live heap (as of each completed GC mark)
// while a run executes. Live bytes, not heap-in-use, so the figure does not
// swing with where in its cycle the collector happens to be.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapLiveMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// take returns the peak in MiB since the sampler started or the last take,
// and starts a new peak from the current live heap.
func (h *heapSampler) take() float64 {
	h.sample()
	h.mu.Lock()
	peak := h.peak
	h.peak = 0
	h.mu.Unlock()
	h.sample()
	return float64(peak) / (1 << 20)
}

// Stop ends sampling, waits for the sampler goroutine and returns the peak
// in MiB since the last take.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return h.take()
}

// gcCounters reads the cumulative GC cycle count and the GC's share of CPU.
type gcCounters struct {
	cycles     uint64
	gcCPU, all float64
}

func readGC() gcCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g gcCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.all = s[2].Value.Float64()
	}
	return g
}

// gcDelta returns the GC cycles and the GC CPU fraction between a and b.
func gcDelta(a, b gcCounters) (cycles float64, cpuFrac float64) {
	cycles = float64(b.cycles - a.cycles)
	if all := b.all - a.all; all > 0 {
		cpuFrac = (b.gcCPU - a.gcCPU) / all
	}
	return cycles, cpuFrac
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by the nearest-rank method on a
// sorted copy (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// timeOp runs op n times per repetition and returns the median
// per-operation time in nanoseconds over reps repetitions, plus the
// allocations per operation of the last repetition.
func timeOp(reps, n int, op func(i int)) (nsPerOp, allocsPerOp float64) {
	for i := 0; i < n/10+1; i++ { // warm caches and lazy state
		op(i)
	}
	var per []float64
	for r := 0; r < reps; r++ {
		before := mallocs()
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		el := time.Since(start)
		allocsPerOp = float64(mallocs()-before) / float64(n)
		per = append(per, float64(el.Nanoseconds())/float64(n))
	}
	return median(per), allocsPerOp
}
