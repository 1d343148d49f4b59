// Command perfbench is the serving benchmark. It runs the system under test
// in process on loopback — the engine alone, the gateway in front of the
// HTTP server, or the HTTP server alone — and generates the load from the
// same process, with seeded synthetic patients. Every served stream and
// response is checked against an in-process reference from the same build.
//
// Each workload runs two untraced phases after set-up:
//
//   - a closed loop with one engine worker, which gives per-core capacity;
//   - an open loop at the workload's fixed offered rate (about a third of
//     that capacity), which gives latency timed from each chunk's or
//     request's due instant.
//
// With --trace 1 the run instead traces every workload, replays each
// layer's public operators over the workload's inputs one goroutine at a
// time, and reports the per-layer metrics and the ledger residual. The last
// line of standard output is the JSON result.
//
// Run it from the repository root through the build wrapper:
//
//	bash perfbench/run.sh --workload fleet_engine --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// system is one set-up instance of the system under test.
type system interface{ close() }

// workload is one traffic mix.
type workload interface {
	// setup builds the system under test from the model bytes until it can
	// serve its first request; set-up time is an end-to-end metric.
	setup() (system, error)
	// run drives one phase against sys.
	run(sys system, ph phase) (*result, error)
	// layers derives the per-layer metrics of a traced open-loop phase.
	layers(sys system, tr *tracer, open *result) (map[string]float64, error)
	// replay times each layer's public operators over the workload's exact
	// inputs, one goroutine at a time, and returns the per-layer figures
	// and the sum of the disjoint layers' ns/sample for the ledger.
	replay() (map[string]float64, float64, error)
	// inputs describes the generated inputs as exact counts.
	inputs() inputStats
}

// phase is one measured stretch of a run.
type phase struct {
	closed  bool    // closed loop (capacity) or open loop at rate
	rate    float64 // open loop: offered samples per second
	warm    int64   // ns at the start whose results are not counted
	dur     int64   // ns measured after the warm-up
	firstOp int     // operation ids continue across phases
	tr      *tracer // nil: untraced
}

// window returns the window an operation due at due falls in, -1 during
// the warm-up.
func (ph phase) window(measureFrom, due int64) int {
	if due < measureFrom {
		return -1
	}
	return int((due - measureFrom) / windowNs)
}

// result is what one phase measured.
type result struct {
	capacity     float64   // closed loop: samples per second over the quiet windows
	cpuPerSample float64   // open loop: process CPU ns per sample
	beatLat      series    // ms, due instant to receipt
	reqLat       series    // ms, due instant to completion
	lag          []float64 // ms, how late the generator issued each due operation
	attempted    int
	failed       int
	mismatched   int       // of the failed: outputs that disagreed with the reference
	refusals     int       // typed refusals the client saw
	retries      int       // engine sends retried on stream_overloaded
	backlog      []float64 // engine samples pending, sampled by the driver
	uploads      []float64 // ms, model upload latency
	// Closed loop, one request at a time, per cycle of every request kind:
	// samples served, service time in ns, and the host's steal.
	cycleSamples, cycleNs, cycleSteal []float64
	rss                               float64 // MiB, the median over windows of each window's peak resident set
	stealTotal                        float64 // the host's steal over the phase, in clock ticks
	nextOp                            int
}

// merge sums the results of concurrent load connections.
func merge(rs []*result) *result {
	out := &result{}
	for _, r := range rs {
		out.beatLat.merge(r.beatLat)
		out.reqLat.merge(r.reqLat)
		out.lag = append(out.lag, r.lag...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.mismatched += r.mismatched
		out.refusals += r.refusals
		out.retries += r.retries
		out.backlog = append(out.backlog, r.backlog...)
		out.uploads = append(out.uploads, r.uploads...)
		out.cycleSamples = append(out.cycleSamples, r.cycleSamples...)
		out.cycleNs = append(out.cycleNs, r.cycleNs...)
		out.cycleSteal = append(out.cycleSteal, r.cycleSteal...)
	}
	return out
}

// spec is one workload as BENCHMARK.json names it. The offered rates are
// constants, never derived at run time, so a slower build shows as longer
// latency rather than as less load. On a 2-vCPU x86-64 host they are about a
// third of the closed-loop capacity for fleet_engine, a quarter for
// classify_batch, and a fifth for stream_gateway, whose HTTP stack already
// kept both CPUs busy at a third.
type spec struct {
	name  string
	rate  float64 // open-loop offered samples per second
	build func(seed uint64, seconds int) (workload, error)
}

var specs = []spec{
	{"fleet_engine", 480_000, func(seed uint64, _ int) (workload, error) { return newFleetEngine(seed) }},
	{"stream_gateway", 250_000, func(seed uint64, secs int) (workload, error) { return newStreamGateway(seed, secs) }},
	{"classify_batch", 1_000_000, func(seed uint64, _ int) (workload, error) { return newClassifyBatch(seed) }},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// setupRounds is how many times a run sets the system up; setup_s is the
// median. A round starts setupGapNs after the previous one ended, so the
// previous round's teardown has finished and the rounds spread over a
// second: a set-up takes well under a millisecond, and back to back one
// burst of host noise could move all of them.
const (
	setupRounds = 51
	setupGapNs  = 20_000_000
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	outdir := flag.String("outdir", ".", "directory for trace files")
	flag.Parse()
	s, ok := specByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(s, *seed, *seconds, *outdir)
	} else {
		rep, err = runUntraced(s, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", k)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// timeSetups sets the system up setupRounds times, tearing all but the
// last down again, and returns the median set-up time in seconds.
func timeSetups(w workload) (float64, system, error) {
	var times []float64
	var sys system
	for i := 0; i < setupRounds; i++ {
		if sys != nil {
			sys.close()
		}
		sleepUntil(mono() + setupGapNs)
		runtime.GC() // every set-up starts from a collected heap
		t0 := mono()
		var err error
		if sys, err = w.setup(); err != nil {
			return 0, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, float64(mono()-t0)/1e9)
	}
	return median(times), sys, nil
}

func seconds(s float64) int64 { return int64(s * 1e9) }

func runUntraced(s spec, seed uint64, secs int) (*report, error) {
	w, err := s.build(seed, secs)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", s.name, err)
	}
	in, _ := json.Marshal(map[string]any{"workload": s.name, "seed": seed, "inputs": w.inputs()})
	fmt.Println(string(in))
	setupS, sys, err := timeSetups(w)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	S := float64(secs)
	closed, err := w.run(sys, phase{closed: true, dur: seconds(0.3 * S)})
	if err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	// Hand the closed loop's memory back to the OS, so the open loop's
	// resident set is its own.
	runtime.GC()
	debug.FreeOSMemory()
	open, err := w.run(sys, phase{rate: s.rate, warm: seconds(0.1 * S), dur: seconds(0.6 * S), firstOp: closed.nextOp})
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	quiet := open.beatLat.quietWindows()
	rep := &report{
		Attempted: closed.attempted + open.attempted,
		Failed:    closed.failed + open.failed,
		Metrics: map[string]metric{
			"setup_s":                {setupS, "s"},
			"capacity_samples_per_s": {closed.capacity, "samples/s"},
			"beat_latency_p50_ms":    {open.beatLat.quantile(0.5, quiet), "ms"},
			"request_latency_p50_ms": {open.reqLat.quantile(0.5, quiet), "ms"},
			"cpu_ns_per_sample":      {open.cpuPerSample, "ns"},
		},
	}
	// Refusals and transport errors are failed operations; only an output
	// that disagrees with the reference makes the run incorrect.
	rep.Correct = closed.mismatched+open.mismatched == 0
	diag, _ := json.Marshal(map[string]any{
		"workload": s.name, "beats_timed": open.beatLat.count(), "requests_timed": open.reqLat.count(),
		"driver_lag_p90_ms": quantile(open.lag, 0.9), "driver_lag_p99_ms": quantile(open.lag, 0.99),
		"refusals": closed.refusals + open.refusals, "open_loop_steal_ticks": open.stealTotal,
		// Not end-to-end metrics: under heavy steal the tail of a
		// sub-millisecond path moved several-fold from run to run even in
		// the quietest blocks, so it measured the host.
		"beat_latency_p90_ms": open.beatLat.quantile(0.9, quiet), "request_latency_p90_ms": open.reqLat.quantile(0.9, quiet),
		// Not an end-to-end metric: on classify_batch it jumped between two
		// levels from run to run with the timing of garbage collection.
		"max_rss_mb": open.rss,
	})
	fmt.Println(string(diag))
	return rep, nil
}
