package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end latencies and the throughput are reported in "ref":
// multiples of the process CPU time a fixed reference computation takes,
// which the benchmark runs just before every timed operation. The two
// clocks remove the two ways a shared host changes the benchmark's speed
// from minute to minute. CPU time stands still while a thread waits for
// a core, whether another process holds it or the hypervisor has taken
// it (steal time). The reference computation slows down with what CPU
// time still sees, other tenants' use of the caches and memory. A time
// in ref thus moves only when the program's own work does. It counts the
// work of every thread, so it shows less work but not better overlap,
// and in churn a read's time includes the writer's work while both run;
// the wall-clock times stay available as per-layer metrics.

// The reference computation is refChunks chains of refSteps dependent
// loads from a table twice the L2 cache of a core, pulled by workers
// goroutines from a shared counter the way the engine's workers pull
// tasks. It takes about 5 ms of wall time and 9 ms of CPU on the
// two-core machine the workloads are sized for. Its table adds a fixed
// 4 MiB to every run's resident set.
const (
	refWords  = 1 << 20 // 4 MiB of uint32
	refChunks = 32
	refSteps  = 1 << 11
	// refWindow is how many reference runs on each side of an operation
	// its local reference time is the median of.
	refWindow = 5
)

var refTable = func() []uint32 {
	t := make([]uint32, refWords)
	x := uint64(1)
	for i := range t {
		x = mix64(x + uint64(i))
		t[i] = uint32(x)
	}
	return t
}()

// refSink keeps the compiler from discarding the reference computation.
var refSink atomic.Uint32

// refRun runs the reference computation once.
func refRun() lap {
	t := now()
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc uint32
			for c := next.Add(1) - 1; c < refChunks; c = next.Add(1) - 1 {
				x := uint32(c) * 2654435761
				for k := uint32(0); k < refSteps; k++ {
					x = refTable[(x^k)&(refWords-1)]*1664525 + 1013904223
				}
				acc += x
			}
			refSink.Add(acc)
		}()
	}
	wg.Wait()
	return t.lap()
}

// instant is a reading of the wall clock and of the process CPU clock.
type instant struct {
	wall time.Time
	cpu  time.Duration
}

func now() instant { return instant{time.Now(), cpuNow()} }

// lap is a time in ms on both clocks.
type lap struct{ wall, cpu float64 }

// lap is the time since t.
func (t instant) lap() lap {
	return lap{float64(time.Since(t.wall)) / 1e6, float64(cpuNow()-t.cpu) / 1e6}
}

// cpuNow is the CPU time the process has used so far, all its threads
// together.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}

// refClock holds the reference runs of one measured loop.
type refClock struct{ runs []lap }

// mark runs the reference computation and returns the index of the run,
// to be recorded with the operation timed right after it.
func (c *refClock) mark() int {
	c.runs = append(c.runs, refRun())
	return len(c.runs) - 1
}

// local is the CPU time of the reference around run i: the median of
// the runs within refWindow of it, so that one run does not set the unit
// of its operation alone.
func (c *refClock) local(i int) float64 {
	var cpu []float64
	for _, l := range c.runs[max(0, i-refWindow):min(len(c.runs), i+refWindow+1)] {
		cpu = append(cpu, l.cpu)
	}
	return median(cpu)
}

// timings are the times of a measured loop's operations, each with the
// reference run made just before it.
type timings struct {
	laps []lap
	ref  []int
}

func (t *timings) add(l lap, ref int) {
	t.laps = append(t.laps, l)
	t.ref = append(t.ref, ref)
}

func (t *timings) n() int { return len(t.laps) }

// inRef returns each operation's CPU time as a multiple of its local
// reference time.
func (t *timings) inRef(c *refClock) []float64 {
	out := make([]float64, len(t.laps))
	for i, l := range t.laps {
		out[i] = l.cpu / c.local(t.ref[i])
	}
	return out
}

// wall returns each operation's wall time in ms.
func (t *timings) wall() []float64 {
	out := make([]float64, len(t.laps))
	for i, l := range t.laps {
		out[i] = l.wall
	}
	return out
}
