package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// On a few vCPUs of a shared machine, neighbours' load makes
// cache-bound code, the simulator included, run up to 1.7x slower for
// periods of seconds to minutes, while a pure ALU loop stays within a
// few percent. A probe measures that momentary host speed: between
// chunks of an episode's timed span it times a fixed burst of random
// read-modify-write updates over a buffer the size of a core's L2
// cache. Across runs the simulator's speed and set-up time follow the
// probe closely (correlation 0.8-0.9 between run medians), with a
// log-log slope of 0.5-1.2, around 0.8: the simulator is a little less
// sensitive to the host's state than the probe. The end-to-end metrics
// therefore correct each episode to a host whose probe takes probeRefNs
// per update, multiplying its speed and dividing its set-up time by
// (probeNs/probeRefNs)^probeExp; the uncorrected figures and the probe
// time are reported as per-layer metrics. The correction is the same
// function of the host for every commit, so a change to the program
// moves a corrected figure exactly as it moves the raw one.

const (
	probeWords = 1 << 15 // 256 KiB of uint64
	probeOps   = 1 << 18 // updates per burst, about 0.5 ms

	// probeRefNs is the probe's update time on a quiet host (1.7-2.1 ns
	// on a 2.1 GHz Xeon), and probeExp the simulator's sensitivity to the
	// probe, rounded from the slopes between run medians on the three
	// workloads.
	probeRefNs = 2.0
	probeExp   = 0.8
)

// probe owns its buffer, which is mapped outside the Go heap so that the
// heap metrics see only the simulator.
type probe struct {
	buf  []uint64
	x    uint64
	sink uint64
	// spent is all host time spent in bursts, to be taken out of the
	// timed span; timed and ops cover the timed updates only.
	spent, timed time.Duration
	ops          int64
}

func newProbe() (*probe, error) {
	mem, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe buffer: %v", err)
	}
	p := &probe{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeWords)}
	for i := range p.buf {
		p.buf[i] = uint64(i)
	}
	return p, nil
}

// reset clears the accumulated times; the buffer and index stream carry
// on, which keeps every burst the same work.
func (p *probe) reset() { p.spent, p.timed, p.ops = 0, 0, 0 }

// burst runs one probe burst. A nil probe does nothing.
func (p *probe) burst() {
	if p == nil {
		return
	}
	t0 := time.Now()
	// The chunk before evicted the buffer; bring it back into cache
	// untimed, so the timed part does not depend on how much the
	// simulator's own footprint displaced.
	var acc uint64
	for _, v := range p.buf {
		acc += v
	}
	t1 := time.Now()
	x, mask := p.x, uint64(len(p.buf)-1)
	for i := 0; i < probeOps; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		j := z & mask
		acc += p.buf[j]
		p.buf[j] = acc
	}
	t2 := time.Now()
	p.x, p.sink = x, p.sink+acc
	p.spent += t2.Sub(t0)
	p.timed += t2.Sub(t1)
	p.ops += probeOps
}

// nsPerOp is the mean host time of one timed update since the last
// reset, or 0 if there was no burst.
func (p *probe) nsPerOp() float64 {
	if p == nil || p.ops == 0 {
		return 0
	}
	return float64(p.timed.Nanoseconds()) / float64(p.ops)
}
