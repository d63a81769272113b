package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const (
	metricLive   = "/gc/heap/live:bytes"
	metricAllocs = "/gc/heap/allocs:bytes"
	metricObjs   = "/gc/heap/allocs:objects"
)

// readUint reads one uint64 runtime metric.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapAllocs returns cumulative heap bytes and objects allocated.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: metricAllocs}, {Name: metricObjs}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// sample is what one timed region costs.
type sample struct {
	wall, cpu  float64 // seconds
	peakLiveMB float64
	allocMB    float64
}

// region times one call: wall and CPU seconds, the highest live heap a
// 2 ms poller of /gc/heap/live:bytes saw, and the bytes allocated. The
// heap is collected first so every region starts from the same live
// set.
func region(f func() error) (sample, error) {
	runtime.GC()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := readUint(metricLive); v > peak {
				peak = v
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	a0, _ := heapAllocs()
	c0 := cpuSeconds()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	a1, _ := heapAllocs()
	close(stop)
	wg.Wait()
	// The live-heap metric only moves when a GC cycle ends; a final
	// reading catches a cycle that finished after the last poll.
	if v := readUint(metricLive); v > peak {
		peak = v
	}
	return sample{wall: wall, cpu: cpu, peakLiveMB: float64(peak) / 1e6, allocMB: float64(a1-a0) / 1e6}, err
}

// median of xs (xs is not modified). Zero for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// timeIt returns the wall seconds f takes.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}
