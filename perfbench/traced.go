package main

import (
	"fmt"
	"os"
	"slices"
	"sort"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload its change should move. Its name, unit and
// direction are what BENCHMARK.json lists under per_layer.
type layerMetric struct {
	name, unit, better string
	moves              string
}

var layerMetrics = []layerMetric{
	{"pipeline.push_ns_per_sample", "ns/sample", "lower", "capacity_samples_per_s, cpu_ns_per_sample on fleet_engine"},
	{"pipeline.batch_ns_per_sample", "ns/sample", "lower", "request_latency_p50_ms on classify_batch"},
	{"sigdsp.filter_ns_per_sample", "ns/sample", "lower", "capacity_samples_per_s on fleet_engine"},
	{"sigdsp.batch_filter_ns_per_sample", "ns/sample", "lower", "request_latency_p50_ms on classify_batch"},
	{"peak.detect_ns_per_sample", "ns/sample", "lower", "capacity_samples_per_s on fleet_engine"},
	{"peak.batch_detect_ns_per_sample", "ns/sample", "lower", "request_latency_p50_ms on classify_batch"},
	{"peak.beats_per_ksample", "beats/ksample", "higher", "input property of fleet_engine (exact count)"},
	{"input.pvc_share", "ratio", "higher", "input property of fleet_engine (exact count)"},
	{"core.classify_ns_per_beat.fuzzy", "ns/beat", "lower", "capacity_samples_per_s on fleet_engine (below 1%)"},
	{"core.classify_ns_per_beat.bitemb", "ns/beat", "lower", "capacity_samples_per_s on fleet_engine (below 1%)"},
	{"engine.send_ns_p50", "ns", "lower", "beat_latency_p50_ms on stream_gateway"},
	{"engine.open_us_p50", "us", "lower", "beat_latency_p50_ms on stream_gateway"},
	{"engine.close_us_p50", "us", "lower", "request_latency_p50_ms on stream_gateway"},
	{"engine.send_retries", "count", "lower", "beat_latency_p50_ms on fleet_engine"},
	{"engine.backlog_samples_p90", "samples", "lower", "beat_latency_p50_ms on fleet_engine"},
	{"wire.decode_ns_per_sample.binary", "ns/sample", "lower", "beat_latency_p50_ms on stream_gateway"},
	{"wire.decode_ns_per_sample.ndjson", "ns/sample", "lower", "beat_latency_p50_ms on stream_gateway"},
	{"wire.decode_ns_per_sample.json_body", "ns/sample", "lower", "request_latency_p50_ms on classify_batch"},
	{"wire.encode_ns_per_beat.stream", "ns/beat", "lower", "beat_latency_p50_ms on stream_gateway"},
	{"wire.encode_ns_per_beat.classify", "ns/beat", "lower", "request_latency_p50_ms on classify_batch"},
	{"wire.uplink_bytes_per_sample.binary", "bytes/sample", "lower", "beat_latency_p50_ms on stream_gateway (exact count)"},
	{"wire.uplink_bytes_per_sample.ndjson", "bytes/sample", "lower", "beat_latency_p50_ms on stream_gateway (exact count)"},
	{"wire.uplink_bytes_per_sample.json_body", "bytes/sample", "lower", "request_latency_p50_ms on classify_batch (exact count)"},
	{"serve.handler_busy_ms_p50", "ms", "lower", "request_latency_p50_ms on classify_batch"},
	{"serve.body_read_wait_us_p50", "us", "lower", "request_latency_p50_ms on classify_batch"},
	{"serve.refusals", "count", "lower", "failed operations on stream_gateway and classify_batch"},
	{"gate.uplink_hop_us_p50", "us", "lower", "beat_latency_p50_ms on stream_gateway"},
	{"gate.downlink_hop_us_p50", "us", "lower", "beat_latency_p50_ms on stream_gateway"},
	{"gate.relayed", "count", "higher", "attempted operations on stream_gateway"},
	{"gate.lost", "count", "lower", "failed operations on stream_gateway (must be 0)"},
	{"gate.failovers", "count", "lower", "failed operations on stream_gateway (must be 0)"},
	{"gate.keepalive_reuse_failed", "count", "lower", "failed operations on stream_gateway if its clients reused connections (must be 0)"},
	{"catalog.upload_ms_p50", "ms", "lower", "beat_latency_p50_ms on stream_gateway"},
	{"driver.lag_p90_ms", "ms", "lower", "run validity: how late the generator ran (worst workload)"},
	{"driver.lag_p99_ms", "ms", "lower", "run validity: how late the generator ran (worst workload)"},
	{"ledger.residual_frac.fleet_engine", "ratio", "lower", "share of fleet_engine time the replayed layers do not explain"},
	{"ledger.residual_frac.stream_gateway", "ratio", "lower", "share of stream_gateway time the replayed layers do not explain"},
	{"ledger.residual_frac.classify_batch", "ratio", "lower", "share of classify_batch time the replayed layers do not explain"},
	{"trace.overhead_frac", "ratio", "lower", "capacity lost to tracing on the named workload"},
}

// runTraced traces every workload in turn — a short untraced and a traced
// closed loop for the tracing overhead and the ledger's capacity, then a
// traced open loop for the per-layer latencies — and replays each
// workload's layers. The named workload is the one whose tracing overhead
// is reported.
func runTraced(named spec, seed uint64, secs int, dir string) (*report, error) {
	S := float64(secs)
	values := map[string]float64{}
	rep := &report{Metrics: map[string]metric{}}
	mismatched := 0
	for _, s := range specs {
		w, err := s.build(seed, secs)
		if err != nil {
			return nil, fmt.Errorf("%s inputs: %w", s.name, err)
		}
		sys, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", s.name, err)
		}
		untraced, err := w.run(sys, phase{closed: true, dur: seconds(0.08 * S)})
		if err != nil {
			sys.close()
			return nil, err
		}
		traced, err := w.run(sys, phase{closed: true, dur: seconds(0.08 * S), tr: &tracer{}, firstOp: untraced.nextOp})
		if err != nil {
			sys.close()
			return nil, err
		}
		tr := &tracer{}
		open, err := w.run(sys, phase{rate: s.rate, warm: seconds(0.03 * S), dur: seconds(0.12 * S), tr: tr, firstOp: traced.nextOp})
		if err != nil {
			sys.close()
			return nil, err
		}
		layers, err := w.layers(sys, tr, open)
		sys.close()
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", s.name, err)
		}
		replayed, ledgerNs, err := w.replay()
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", s.name, err)
		}
		for k, v := range layers {
			values[k] += v // serve.refusals sums over the HTTP workloads
		}
		for k, v := range replayed {
			values[k] = v
		}
		values["ledger.residual_frac."+s.name] = 1 - ledgerNs/(1e9/untraced.capacity)
		if s.name == named.name {
			values["trace.overhead_frac"] = 1 - traced.capacity/untraced.capacity
		}
		values["driver.lag_p90_ms"] = max(values["driver.lag_p90_ms"], quantile(open.lag, 0.9))
		values["driver.lag_p99_ms"] = max(values["driver.lag_p99_ms"], quantile(open.lag, 0.99))
		for _, r := range []*result{untraced, traced, open} {
			rep.Attempted += r.attempted
			rep.Failed += r.failed
			mismatched += r.mismatched
		}
		if err := tr.write(traceFile(dir, s.name, seed)); err != nil {
			return nil, err
		}
		printSelfTimes(s.name, tr)
	}
	for _, m := range layerMetrics {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		rep.Metrics[m.name] = metric{v, m.unit}
		delete(values, m.name)
	}
	if len(values) > 0 {
		return nil, fmt.Errorf("unlisted per-layer metrics %v", values)
	}
	rep.Correct = mismatched == 0
	return rep, nil
}

// printSelfTimes writes each span name's calls, wall and self time to
// standard error, largest self time first.
func printSelfTimes(workload string, tr *tracer) {
	st := tr.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].SelfNs > st[names[j]].SelfNs })
	for _, n := range names {
		lt := st[n]
		fmt.Fprintf(os.Stderr, "%s %-22s calls %8d  wall %10.3f ms  self %10.3f ms\n",
			workload, n, lt.Calls, float64(lt.WallNs)/1e6, float64(lt.SelfNs)/1e6)
	}
}

// --- fleet_engine ---

func (f *fleetEngine) layers(_ system, tr *tracer, open *result) (map[string]float64, error) {
	return map[string]float64{
		"engine.send_ns_p50":         median(tr.durations("engine.send", 1)),
		"engine.open_us_p50":         median(tr.durations("engine.open", 1e3)),
		"engine.close_us_p50":        median(tr.durations("engine.close", 1e3)),
		"engine.send_retries":        float64(open.retries),
		"engine.backlog_samples_p90": quantile(open.backlog, 0.9),
	}, nil
}

func (f *fleetEngine) replay() (map[string]float64, float64, error) {
	sl, err := replayStream(f.models, f.recs, fleetChunk)
	if err != nil {
		return nil, 0, err
	}
	ledger := sl.filterNs + sl.detectNs + sl.beatsPerSample*meanHeads(sl.classifyNs)
	return map[string]float64{
		"pipeline.push_ns_per_sample":      sl.pushNs,
		"sigdsp.filter_ns_per_sample":      sl.filterNs,
		"peak.detect_ns_per_sample":        sl.detectNs,
		"core.classify_ns_per_beat.fuzzy":  sl.classifyNs[headFuzzy],
		"core.classify_ns_per_beat.bitemb": sl.classifyNs[headBitemb],
		"peak.beats_per_ksample":           f.stats.BeatsPerKS,
		"input.pvc_share":                  f.stats.PVCShare,
	}, ledger, nil
}

// --- stream_gateway ---

func (g *streamGateway) layers(sys system, tr *tracer, open *result) (map[string]float64, error) {
	s := sys.(*gatewaySystem)
	out := map[string]float64{
		"gate.uplink_hop_us_p50":   median(hops(tr.byName("client.chunk_send"), tr.byName("serve.body_read"))),
		"gate.downlink_hop_us_p50": median(hops(tr.byName("serve.write"), tr.byName("client.line_read"))),
		"catalog.upload_ms_p50":    median(open.uploads),
		"serve.refusals":           float64(open.refusals),
	}
	st := s.gw.Status()
	out["gate.failovers"] = float64(st.Failovers)
	for _, b := range st.Backends {
		out["gate.relayed"] += float64(b.Relayed)
		out["gate.lost"] += float64(b.Lost)
	}
	out["serve.refusals"] += backendShed(s.backend.url)
	var err error
	out["gate.keepalive_reuse_failed"], err = g.reuseFailures(s)
	return out, err
}

func (g *streamGateway) replay() (map[string]float64, float64, error) {
	sl, err := replayStream(g.models, g.recs, gwChunk)
	if err != nil {
		return nil, 0, err
	}
	n := g.stats.Samples
	bin := decodeFrames(flatten(g.enc[codecBinary]), n)
	nd := decodeLines(flatten(g.enc[codecNDJSON]), n)
	enc := encodeStreamBeats(slices.Concat(g.beats[headFuzzy], g.beats[headBitemb]))
	ledger := sl.filterNs + sl.detectNs + sl.beatsPerSample*(meanHeads(sl.classifyNs)+enc) + (bin+nd)/2
	return map[string]float64{
		"wire.decode_ns_per_sample.binary":    bin,
		"wire.decode_ns_per_sample.ndjson":    nd,
		"wire.encode_ns_per_beat.stream":      enc,
		"wire.uplink_bytes_per_sample.binary": g.stats.UplinkBinary,
		"wire.uplink_bytes_per_sample.ndjson": g.stats.UplinkJSON,
	}, ledger, nil
}

// --- classify_batch ---

func (b *classifyBatch) layers(sys system, tr *tracer, open *result) (map[string]float64, error) {
	s := sys.(*httpSystem)
	wait := map[int64]float64{}
	for _, sp := range tr.byName("serve.body_read") {
		wait[sp.Op] += float64(sp.dur()) / 1e3
	}
	var waits []float64
	for _, w := range wait {
		waits = append(waits, w)
	}
	return map[string]float64{
		"serve.handler_busy_ms_p50":   median(tr.durations("serve.handler", 1e6)),
		"serve.body_read_wait_us_p50": median(waits),
		"serve.refusals":              float64(open.refusals) + backendShed(s.backend.url),
	}, nil
}

func (b *classifyBatch) replay() (map[string]float64, float64, error) {
	bl, err := replayBatch(b.models, b.recs, b.beats)
	if err != nil {
		return nil, 0, err
	}
	n := b.stats.Samples
	jsonBody := decodeBodies(b.bodies[codecNDJSON], n)
	binBody := decodeFrames(b.bodies[codecBinary], n)
	enc := encodeResponses(b.models.refs[headFuzzy], slices.Concat(b.beats[headFuzzy], b.beats[headBitemb]))
	ledger := bl.filterNs + bl.detectNs + bl.beatsPerSample*(meanHeads(bl.classifyNs)+enc) + (jsonBody+binBody)/2
	return map[string]float64{
		"pipeline.batch_ns_per_sample":           bl.batchNs,
		"sigdsp.batch_filter_ns_per_sample":      bl.filterNs,
		"peak.batch_detect_ns_per_sample":        bl.detectNs,
		"wire.decode_ns_per_sample.json_body":    jsonBody,
		"wire.encode_ns_per_beat.classify":       enc,
		"wire.uplink_bytes_per_sample.json_body": b.stats.UplinkJSON,
	}, ledger, nil
}
