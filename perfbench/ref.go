package main

import (
	"syscall"
	"unsafe"
)

// The host this benchmark runs on is shared: its speed drifts by half or
// more over seconds to minutes as other tenants come and go, and single
// milliseconds are often much slower than their neighbours. Either swamps a
// change in the simulator. So the harness times a short fixed reference
// kernel every refEveryNs of host time through each round, between virtual
// slices, and scales the round's host times to a host on which one kernel
// sample takes the kernel's nominalNs.
//
// A busy host slows a large working set more than a small one, because the
// tenants share the last-level cache. So there are two kernels, and each
// workload is scaled by the one whose working set is most like its own:
// smallRef for a few procs on a small heap, largeRef for hundreds of procs
// or a heap of tens of MiB. Both exercise what the simulator leans on and
// use none of its code, so no change to the simulator moves them. Neither
// allocates on the Go heap after start-up, so they show in no heap,
// allocation or GC metric; their goroutines are left out of
// runtime.goroutines_peak.
const refEveryNs = 50e6

type refKernel struct {
	sample    func() // one sample of fixed work
	nominalNs float64
}

var (
	// smallRef hands off 2,500 times between two goroutines over unbuffered
	// channels and steps a binary heap and a table 4,000 times.
	smallRef = &refKernel{smallSample, 2e6}
	// largeRef steps an event loop 2,000 times: pop a binary heap, hand off
	// to one of refProcs parked goroutines, which touches its own stack,
	// and push its next wake-up. Then it chases pointers 10,000 times
	// through 32 MiB and copies 4 MiB.
	largeRef = &refKernel{largeSample, 4e6}
)

// refGoroutines is how many goroutines the kernels keep parked.
const refGoroutines = refProcs + 1

const (
	refHandoffs = 2_500
	refMixOps   = 4_000
	refProcs    = 1024
	refSteps    = 2_000
	refLoads    = 10_000
	refCopyB    = 4 << 20
)

// refState is the kernels' state between samples. Its buffers are mapped
// outside the Go heap. The event loop and the pointer chase resume where
// the last sample stopped, so successive samples spread over all of their
// working sets instead of finding one corner of it in the cache.
type refState struct {
	ping, pong chan uint64
	mix        []uint64 // min-heap
	slots      [4096]uint64
	x          uint64

	wake     []chan uint64 // one per event-loop goroutine
	done     chan uint64
	queue    []uint64 // min-heap of wake time<<10 | goroutine
	chase    []uint32 // a pseudo-random walk over 32 MiB
	at       uint32
	src, dst []byte
}

var kernel = newRefState()

func newRefState() *refState {
	m := &refState{
		ping: make(chan uint64), pong: make(chan uint64),
		mix: make([]uint64, 0, 256), x: 88172645463325252,
		done: make(chan uint64), queue: make([]uint64, 0, refProcs),
	}
	go func() {
		for v := range m.ping {
			m.pong <- v + 1
		}
	}()
	for i := 0; i < refProcs; i++ {
		c := make(chan uint64)
		m.wake = append(m.wake, c)
		m.queue = heapPush(m.queue, uint64(i)<<10|uint64(i))
		go func() {
			var local [64]uint64
			for v := range c {
				local[v&63] += v
				m.done <- local[(v>>6)&63]*6364136223846793005 + v
			}
		}()
	}
	m.chase = unsafe.Slice((*uint32)(unsafe.Pointer(&offHeap(32 << 20)[0])), 8<<20)
	x := uint32(2463534242)
	for i := range m.chase {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		m.chase[i] = x & (8<<20 - 1)
	}
	m.src, m.dst = offHeap(refCopyB), offHeap(refCopyB)
	return m
}

func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	return b
}

func smallSample() {
	m := kernel
	var v uint64
	for i := 0; i < refHandoffs; i++ {
		m.ping <- v
		v = <-m.pong
	}
	x := m.x
	for i := 0; i < refMixOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if len(m.mix) == cap(m.mix) {
			m.mix = heapPop(m.mix)
		}
		m.mix = heapPush(m.mix, x&0xffffff)
		m.slots[x&4095] = x
		x += m.slots[(x>>12)&4095] & 0xff
	}
	m.x = x + v
}

func largeSample() {
	m := kernel
	for i := 0; i < refSteps; i++ {
		e := m.queue[0]
		m.queue = heapPop(m.queue)
		id := e & (refProcs - 1)
		m.wake[id] <- e
		v := <-m.done
		m.queue = heapPush(m.queue, (e>>10+1+v>>58)<<10|id)
	}
	j := m.at
	for i := 0; i < refLoads; i++ {
		j = m.chase[j] ^ uint32(i&7)
	}
	m.at = j
	copy(m.dst, m.src)
}

// heapPush and heapPop keep h a binary min-heap.
func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) []uint64 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}
