// Streaming: the sample-by-sample front end a node actually runs.
//
// The batch API (sigdsp.FilterECG) processes whole buffers; a sensor node
// sees one ADC sample every 1/360 s and has a few kilobytes of RAM. This
// example drives the bounded-memory streaming filter (noise suppression +
// baseline removal, the serving pipeline's front end) over a synthetic
// recording, shows its fixed group delay, and verifies on the fly that the
// stream output is bit-identical to the batch reference.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/sigdsp"
)

func main() {
	log.SetFlags(0)

	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "stream", Seconds: 60, Seed: 42, PVCRate: 0.08})
	raw := rec.LeadMillivolts(0)
	cfg := sigdsp.DefaultBaselineConfig(rec.Fs)

	// Reference: batch noise suppression + baseline removal over the whole
	// buffer.
	batch := sigdsp.FilterECG(raw, cfg)

	// Stream: one Push per ADC sample, bounded memory.
	f := sigdsp.NewStreamECGFilter(cfg)
	fmt.Printf("streaming front end: group delay %d samples (%.0f ms at %.0f Hz)\n",
		f.Delay(), 1000*float64(f.Delay())/rec.Fs, rec.Fs)

	var out []float64
	for _, x := range raw {
		if y, ok := f.Push(x); ok {
			out = append(out, y)
		}
	}
	fmt.Printf("pushed %d samples, emitted %d (the final %d need future input)\n",
		len(raw), len(out), len(raw)-len(out))

	// Agreement with the batch reference: every emitted sample, from the
	// first one on (the trailing windows over the first samples cover
	// exactly the batch operators' clipped border windows).
	differ := 0
	for i, y := range out {
		if y != batch[i] {
			differ++
		}
	}
	if differ > 0 {
		log.Fatalf("%d of %d stream samples differ from the batch reference", differ, len(out))
	}
	fmt.Printf("stream == batch on all %d emitted samples (bit-exact)\n", len(out))

	// Show a beat before/after filtering.
	if len(rec.Ann) > 3 {
		p := rec.Ann[3].Sample
		if p < len(out) {
			fmt.Printf("\nbeat @%d: raw %.3f mV (wandering baseline), filtered %.3f mV\n",
				p, raw[p], out[p])
		}
	}
}
