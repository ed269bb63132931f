package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// heapPeak samples the live heap (as of the last garbage collection)
// every 20 milliseconds and keeps the largest value, without stopping
// the world.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapPeak begins sampling; stopMB ends it.
func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			h.observe(liveHeap(s))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) observe(v uint64) {
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// takeMB returns the peak in MB since the last take and starts afresh.
// A nil heapPeak reads 0.
func (h *heapPeak) takeMB() float64 {
	if h == nil {
		return 0
	}
	h.observe(liveHeap([]metrics.Sample{{Name: liveHeapMetric}}))
	h.mu.Lock()
	defer h.mu.Unlock()
	v := h.peak
	h.peak = 0
	return float64(v) / (1 << 20)
}

// stopMB stops the sampler, waits for it, and returns the peak in MB
// since the last take.
func (h *heapPeak) stopMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return h.takeMB()
}

// allocatedBytes reads the cumulative bytes allocated on the heap.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
