// Command rpgate is the gateway tier in front of a pool of rpserve
// backends: it consistent-hashes stream IDs onto backends (per-stream
// pipeline state makes affinity mandatory), relays the binary
// application/x-rpbeat-samples uplink and NDJSON downlink verbatim in both
// directions, health-checks the pool with typed-error-aware backoff, and
// fans catalog mutations (POST /v1/models, DELETE /v1/models/{ref},
// PUT /v1/default) out to every backend with manifest digest verification —
// a backend serving divergent model bytes under a fleet name@vN is refused
// routing until it converges.
//
// Usage:
//
//	rpserve -addr :8081 -demo -instance b1 &
//	rpserve -addr :8082 -demo -instance b2 &
//	rpserve -addr :8083 -demo -instance b3 &
//	rpgate  -addr :8080 -backend http://127.0.0.1:8081 \
//	        -backend http://127.0.0.1:8082 -backend http://127.0.0.1:8083
//	rpload  -server http://127.0.0.1:8080 -streams 200
//
// Clients address the gateway exactly like a single rpserve: same routes,
// same typed error contract, byte-identical responses. Stream affinity
// comes from the X-Stream-Id request header (or a ?stream= query
// parameter); requests without one are balanced round-robin.
//
// A backend dying mid-stream is invisible to the client: the gateway keeps a
// bounded replay journal per stream and, on a retryable failure, reopens on
// the ring successor, replays the journal tail, suppresses beats the client
// already has, and resumes live. With the default -failover-window (the
// deterministic-resync warm-up bound) the post-failover beats are
// bit-identical to an uninterrupted run.
//
// Shutdown is graceful: SIGINT/SIGTERM stop the listener, in-flight relays
// get -drain to finish (backends keep their streams), then the gateway
// closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rpbeat/internal/gate"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		replicas  = flag.Int("replicas", 0, "virtual nodes per backend on the hash ring (0 = default)")
		interval  = flag.Duration("health-interval", gate.DefaultHealthInterval, "backend health/catalog probe cadence")
		timeout   = flag.Duration("health-timeout", 2*time.Second, "per-probe timeout")
		failAfter = flag.Int("fail-after", 2, "consecutive transport failures before a backend leaves rotation")
		failover  = flag.Int("failover-window", 0, "replay-journal depth in samples for transparent mid-stream failover (0 = resync warm-up bound)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	)
	var backends []string
	flag.Func("backend", "backend base URL (repeatable), e.g. http://127.0.0.1:8081", func(v string) error {
		if v == "" {
			return fmt.Errorf("empty backend URL")
		}
		backends = append(backends, v)
		return nil
	})
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("rpgate: ")

	if len(backends) == 0 {
		log.Fatal("no backends: pass -backend http://host:port at least once")
	}
	g, err := gate.New(gate.Config{
		Backends:       backends,
		Replicas:       *replicas,
		HealthInterval: *interval,
		HealthTimeout:  *timeout,
		FailAfter:      *failAfter,
		FailoverWindow: *failover,
	})
	if err != nil {
		log.Fatal(err)
	}
	// One synchronous round before serving, so the first request already
	// sees real health and an adopted catalog view.
	g.CheckNow(context.Background())
	for _, st := range g.Status().Backends {
		state := "healthy"
		switch {
		case !st.Healthy:
			state = "down (" + st.LastErr + ")"
		case st.Draining:
			state = "draining"
		case st.Divergent:
			state = "divergent (" + st.LastErr + ")"
		}
		log.Printf("backend %s: %s", st.URL, state)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           g.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("gateway on %s over %d backend(s)", *addr, len(backends))

	select {
	case err := <-errc:
		g.Close()
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal; draining in-flight relays (up to %v)", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			log.Printf("drain incomplete: %v; closing remaining connections", err)
			srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("listener: %v", err)
		}
		g.Close()
		log.Printf("bye")
	}
}
