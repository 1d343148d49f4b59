package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (NaN for an empty sample). It sorts v in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

// median is quantile(v, 0.5).
func median(v []float64) float64 { return quantile(v, 0.5) }

// mono is the benchmark's clock: nanoseconds since the process started,
// read from the monotonic clock.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// sleepUntil blocks until the monotonic clock reaches due and returns the
// time it woke. It sleeps with nanosleep(2) rather than time.Sleep: the Go
// timer wakes up to a millisecond late on Linux, which would dominate the
// sub-millisecond latencies this benchmark measures, while nanosleep wakes
// within tens of microseconds and, unlike spinning, burns no CPU that the
// system under test could use.
func sleepUntil(due int64) int64 {
	for {
		now := mono()
		if now >= due {
			return now
		}
		ts := syscall.NsecToTimespec(due - now)
		syscall.Nanosleep(&ts, nil)
	}
}

// cpuNanos returns the user+system CPU time the whole process has used.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

const msPerNs = 1e-6
