// Command cdarouter fronts a cluster of cdaserver nodes: it places
// sessions on a consistent-hash ring, ships each committed turn's WAL
// frames from the owning primary to its replica, serves transcript
// reads from replicas, and fails a member over to its replica when
// the primary stops acking.
//
// Usage:
//
//	cdarouter [-addr :8070] [-vnodes 128] [-shards 8]
//	          -member n1=http://127.0.0.1:8081,http://127.0.0.1:8082
//	          [-member n2=...] [-probe-every 2s] [-catchup-every 10s]
//	          [-failure-threshold 3] [-max-inflight 0] [-rate 0] [-burst 0]
//
// Each -member is name=primaryURL[,replicaURL]; -shards must match
// the nodes' own -shards flag (placement is a shared constant).
//
// Endpoints: the three session routes of a cdaserver node (POST
// /sessions, POST /sessions/{id}/ask, GET /sessions/{id} — listed in
// internal/server's package comment and served by the same handlers,
// with the same status for every refusal), where GET /sessions/{id}
// also takes ?replica=1 to read from the member's replica (stale
// pages carry X-CDA-Stale: true), plus
//
//	GET  /healthz                  router + per-member failover/lag status
//
// Example:
//
//	cdaserver -addr :8081 -node-name n1-primary -data-dir ./n1p &
//	cdaserver -addr :8082 -node-name n1-replica -data-dir ./n1r &
//	cdarouter -member n1=http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/cluster"
	"github.com/reliable-cda/cda/internal/resilience"
)

// memberSpec is one parsed -member value; the HTTPNode clients are
// built after flag parsing, when -shards is known.
type memberSpec struct {
	name, primary, replica string
}

// memberFlags accumulates repeated -member name=primaryURL[,replicaURL].
type memberFlags []memberSpec

func (f *memberFlags) String() string {
	names := make([]string, len(*f))
	for i, m := range *f {
		names[i] = m.name
	}
	return strings.Join(names, ",")
}

func (f *memberFlags) Set(v string) error {
	name, urls, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=primaryURL[,replicaURL], got %q", v)
	}
	primary, replica, _ := strings.Cut(urls, ",")
	if primary == "" {
		return fmt.Errorf("member %s: primary URL is empty", name)
	}
	for _, u := range []string{primary, replica} {
		if u == "" {
			continue
		}
		parsed, err := url.Parse(u)
		if err != nil || parsed.Scheme == "" || parsed.Host == "" {
			return fmt.Errorf("member %s: %q is not an absolute URL", name, u)
		}
	}
	*f = append(*f, memberSpec{name: name, primary: primary, replica: replica})
	return nil
}

func main() {
	var members memberFlags
	addr := flag.String("addr", ":8070", "listen address")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member (all routers must agree)")
	shards := flag.Int("shards", 8, "store shard count on every node (must match the nodes' -shards)")
	flag.Var(&members, "member", "ring member as name=primaryURL[,replicaURL]; repeatable")
	probeEvery := flag.Duration("probe-every", 2*time.Second, "primary health-probe interval (0: no probing)")
	catchupEvery := flag.Duration("catchup-every", 10*time.Second, "background replica catch-up interval (0: ship only after writes)")
	failureThreshold := flag.Int("failure-threshold", 3, "consecutive primary failures before failover")
	maxInflight := flag.Int("max-inflight", 0, "cluster-wide concurrent request limit (0: unlimited)")
	rate := flag.Float64("rate", 0, "cluster-wide admitted requests per second (0: unlimited)")
	burst := flag.Float64("burst", 0, "token-bucket burst size (0: max(rate,1))")
	flag.Parse()

	if len(members) == 0 {
		log.Fatal("cdarouter: at least one -member is required")
	}

	httpClient := &http.Client{Timeout: 30 * time.Second}
	ringMembers := make([]cluster.Member, 0, len(members))
	for _, spec := range members {
		m := cluster.Member{
			Name:    spec.name,
			Primary: cluster.NewHTTPNode(spec.name+"-primary", spec.primary, *shards, httpClient),
		}
		if spec.replica != "" {
			m.Replica = cluster.NewHTTPNode(spec.name+"-replica", spec.replica, *shards, httpClient)
		}
		ringMembers = append(ringMembers, m)
	}

	clock := resilience.NewWallClock()
	cfg := cluster.Config{
		Members: ringMembers,
		VNodes:  *vnodes,
		Clock:   clock,
		Breaker: resilience.BreakerConfig{FailureThreshold: *failureThreshold},
	}
	if *maxInflight > 0 || *rate > 0 {
		cfg.ClusterAdmission = &admission.Config{
			MaxInflight: *maxInflight,
			Rate:        *rate,
			Burst:       *burst,
		}
	}
	router, err := cluster.NewRouter(cfg)
	if err != nil {
		log.Fatalf("cdarouter: %v", err)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           router.Handler(),
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Background loops: probe dead-but-idle primaries into failover,
	// and re-ship replicas that fell behind (a ship failure after a
	// write otherwise waits for the next write to that shard). Both are
	// ctx-bound and joined on shutdown.
	loopCtx, loopStop := context.WithCancel(context.Background())
	loopsDone := make(chan struct{})
	go func() {
		defer close(loopsDone)
		runLoops(loopCtx, router, *probeEvery, *catchupEvery)
	}()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("cdarouter listening on %s (%d members, %d vnodes)\n",
			*addr, len(ringMembers), *vnodes)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("cdarouter: %s received, draining connections", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("cdarouter: shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("cdarouter: serve: %v", err)
		}
		loopStop()
		<-loopsDone
	}
}

// runLoops drives the probe and catch-up tickers until ctx ends.
func runLoops(ctx context.Context, router *cluster.Router, probeEvery, catchupEvery time.Duration) {
	var probeC, catchupC <-chan time.Time
	if probeEvery > 0 {
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		probeC = t.C
	}
	if catchupEvery > 0 {
		t := time.NewTicker(catchupEvery)
		defer t.Stop()
		catchupC = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-probeC:
			router.Probe(ctx)
		case <-catchupC:
			for _, st := range router.Status(ctx) {
				if st.Promoted || st.ReplicaLag == 0 {
					continue
				}
				if err := router.CatchUp(ctx, st.Name); err != nil {
					log.Printf("cdarouter: catch-up %s: %v", st.Name, err)
				}
			}
		}
	}
}
