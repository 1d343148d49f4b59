package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
)

// A run cuts each measured phase into windowNs windows. The host's CPUs
// are shared with other virtual machines: while the hypervisor runs another
// tenant (steal time in /proc/stat), every hop of a sub-millisecond path
// waits, and what was due then measures the host rather than the program.
// Disturbances like these do not depend on the program and come in bursts,
// so rates and latencies are taken over the quiet part of a phase:
//
//   - a rate over the least-stolen windows that together hold quietShare of
//     the time, which is every window on a host that reports no steal;
//   - a latency over the quiet blocks (see quietWindows), judged by the
//     beats' own latency: steal is counted in 10 ms clock ticks, too coarse
//     for sub-millisecond paths, and a busy neighbour in the guest or on the
//     host's caches shows no steal at all.
//
// CPU time, which excludes steal, is taken over all windows.
const (
	windowNs   = 100_000_000
	quietShare = 0.25

	// Latency blocks hold at least blockOps beat operations: one window of
	// beats on the stream workloads, three of each of classify_batch's four
	// request kinds. The quiet ones are the quietBlockShare of blocks, and
	// at least minQuietBlocks, with the lowest beat latency p90.
	blockOps        = 12
	quietBlockShare = 0.1
	minQuietBlocks  = 3
)

// quiet selects windows in order of increasing steal until their weight
// reaches quietShare of the total, and then every window stolen from no
// more than the last one chosen.
func quiet(steal, weight []float64) []bool {
	order := make([]int, len(steal))
	total := 0.0
	for i := range order {
		order[i] = i
		total += weight[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	chosen := make([]bool, len(steal))
	got, limit := 0.0, math.Inf(-1)
	for _, i := range order {
		if got >= quietShare*total && steal[i] > limit {
			break
		}
		chosen[i] = true
		got += weight[i]
		limit = steal[i]
	}
	return chosen
}

// series is one latency's samples, grouped by the window they were due in.
// Consecutive windows form blocks of at least blockOps operations: one
// window of beats on the stream workloads, a few windows of streams or
// classify requests.
type series struct {
	win [][]float64
	ops []int // operations per window; a classify response is one operation that times every beat it carries
}

func (s *series) add(w int, v float64) { s.addOp(w, v, 1) }

// addOp adds n samples of value v that one operation due in window w gave.
func (s *series) addOp(w int, v float64, n int) {
	if w < 0 {
		return
	}
	for len(s.win) <= w {
		s.win = append(s.win, nil)
		s.ops = append(s.ops, 0)
	}
	for range n {
		s.win[w] = append(s.win[w], v)
	}
	s.ops[w]++
}

func (s *series) merge(o series) {
	for w, vs := range o.win {
		if w < 0 || len(vs) == 0 {
			continue
		}
		for len(s.win) <= w {
			s.win = append(s.win, nil)
			s.ops = append(s.ops, 0)
		}
		s.win[w] = append(s.win[w], vs...)
		s.ops[w] += o.ops[w]
	}
}

func (s *series) count() int {
	n := 0
	for _, vs := range s.win {
		n += len(vs)
	}
	return n
}

// quietWindows cuts the beat series into blocks of consecutive windows
// holding at least blockOps operations and marks the windows of the quiet
// blocks: those whose beat latency p90 was lowest. A disturbance that
// queues work delays the tail first; a change that slows the beat path
// slows every block, so it still shows, while a stall that hits only some
// blocks does not. A trailing block short of blockOps is left out.
func (s *series) quietWindows() []bool {
	var blocks [][]int // window indices
	var cur []int
	ops := 0
	for w := range s.win {
		cur = append(cur, w)
		if ops += s.ops[w]; ops >= blockOps {
			blocks = append(blocks, cur)
			cur, ops = nil, 0
		}
	}
	p90 := make([]float64, len(blocks))
	for i, b := range blocks {
		var vs []float64
		for _, w := range b {
			vs = append(vs, s.win[w]...)
		}
		p90[i] = quantile(vs, 0.9)
	}
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p90[order[a]] < p90[order[b]] })
	n := min(len(blocks), max(minQuietBlocks, int(math.Round(quietBlockShare*float64(len(blocks))))))
	chosen := make([]bool, len(s.win))
	for _, i := range order[:n] {
		for _, w := range blocks[i] {
			chosen[w] = true
		}
	}
	return chosen
}

// quantile is the q-quantile of the samples due in the chosen windows.
func (s *series) quantile(q float64, chosen []bool) float64 {
	var pooled []float64
	for w, vs := range s.win {
		if w < len(chosen) && chosen[w] {
			pooled = append(pooled, vs...)
		}
	}
	return quantile(pooled, q)
}

// meter marks a running count, the process CPU time and the host's steal
// time at window boundaries.
type meter struct {
	t, n, cpu, steal []int64
	peakRSS          []float64 // MiB, the peak resident set since the previous mark
	err              error
}

func (m *meter) mark(n int64) {
	m.t = append(m.t, mono())
	m.n = append(m.n, n)
	m.cpu = append(m.cpu, cpuNanos())
	m.steal = append(m.steal, stealTicks())
	rss, err := statusMB("VmHWM:")
	if err == nil {
		err = resetPeakRSS()
	}
	m.peakRSS = append(m.peakRSS, rss)
	m.err = errors.Join(m.err, err)
}

// rssMB is the median over windows of each window's peak resident set.
func (m *meter) rssMB() float64 {
	if len(m.peakRSS) < 2 {
		return math.NaN()
	}
	return median(m.peakRSS[1:])
}

// windowSteal is each window's steal, in clock ticks, plus the previous
// window's: work that queued up while the CPU was stolen still drains at
// the start of the next window.
func (m *meter) windowSteal() []float64 {
	var out []float64
	for i := 1; i < len(m.t); i++ {
		out = append(out, float64(m.steal[i]-m.steal[max(i-2, 0)]))
	}
	return out
}

// stealTotal is the host's steal over the whole phase, in clock ticks.
func (m *meter) stealTotal() float64 {
	return float64(m.steal[len(m.steal)-1] - m.steal[0])
}

// rate is the count's growth per second over the quiet windows.
func (m *meter) rate() float64 {
	var dn, dt []float64
	for i := 1; i < len(m.t); i++ {
		dn = append(dn, float64(m.n[i]-m.n[i-1]))
		dt = append(dt, float64(m.t[i]-m.t[i-1]))
	}
	return quietRate(dn, dt, m.windowSteal())
}

// quietRate is sum(n)/sum(t) per second over the quiet intervals.
func quietRate(n, t, steal []float64) float64 {
	var sn, st float64
	for i, ok := range quiet(steal, t) {
		if ok {
			sn += n[i]
			st += t[i]
		}
	}
	return sn / (st / 1e9)
}

// cpuPerUnit is the process CPU nanoseconds per counted unit over the phase.
func (m *meter) cpuPerUnit() float64 {
	last := len(m.t) - 1
	if last < 1 {
		return math.NaN()
	}
	return float64(m.cpu[last]-m.cpu[0]) / float64(m.n[last]-m.n[0])
}

// resetPeakRSS restarts the kernel's count of the peak resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// statusMB reads one kB field of /proc/self/status in MiB.
func statusMB(field string) (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte(field)); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(v), []byte(" kB"))), 64)
			return kb / 1024, err
		}
	}
	return 0, os.ErrNotExist
}

// markWindows marks counted at every window boundary of the measured span,
// from the calling goroutine while the load connections run.
func markWindows(ph phase, measureFrom, stop int64, counted *atomic.Int64) *meter {
	m := &meter{}
	for b := measureFrom; b <= stop; b += windowNs {
		sleepUntil(b)
		m.mark(counted.Load())
	}
	return m
}

// stealTicks reads the host's steal time over all CPUs from /proc/stat, in
// clock ticks (0 where the kernel does not report it).
func stealTicks() int64 {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	fields := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(string(fields[8]), 10, 64)
	return v
}
