// Command hadard runs the scheduler as a long-lived service: a
// steppable simulation engine owned by a single goroutine, fronted by
// a bounded admission queue and an HTTP control API.
//
// Usage:
//
//	hadard [-scheduler hadar] [-cluster sim|physical] [-addr :8080]
//	       [-clock virtual|wall] [-interval 50ms] [-queue 64]
//	       [-round 6] [-validate=true]
//	       [-clusters N] [-router round-robin|least-queue|affinity]
//	       [-wal DIR] [-recover] [-fsync always|group|off]
//	       [-fsync-interval 2ms] [-checkpoint-every 256]
//
// -scheduler takes any name in experiments.Policies (`hadard -h` lists
// them). With -clusters N (N > 1) the daemon runs a federation: N
// independent member clusters, each with its own scheduler instance,
// advanced on one shared clock, with the -router policy picking the
// owning member for every submission at the front door. The same HTTP
// surface is served, with the same bodies: every job response names the
// owning member, for one cluster as for many. Every other flag, -wal
// and -recover included, means the same for one cluster and for many.
//
// The HTTP surface combines the dashboard (/, /jobs, /api/summary)
// with the live control API:
//
//	POST   /api/jobs      {"model": "ResNet-50", "workers": 2, "gpu_hours": 4}
//	GET    /api/jobs/{id} lifecycle phase + live/final detail
//	DELETE /api/jobs/{id} cancel a pending or running job
//	GET    /api/snapshot  counts, live jobs per member + admission stats
//
// With -wal DIR every accepted mutation is journaled before its HTTP
// response, and -recover resumes from the journal after a crash: every
// member engine is rebuilt from the latest checkpoint plus a replay of
// the journal tail — submissions go back to the member that accepted
// them, the router is not asked again — with every replayed round
// digest-verified against the original run. SIGINT/SIGTERM trigger a
// graceful shutdown — in-flight HTTP requests drain, the queue is
// rejected-and-emptied, the journal is flushed, and a final checkpoint
// is written, so the next -recover replays nothing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/web"
)

var (
	schedName  = flag.String("scheduler", "hadar", "scheduler: "+experiments.PolicyNames())
	clusterSel = flag.String("cluster", "sim", "cluster config: sim (60 GPUs) or physical (8 GPUs)")
	addr       = flag.String("addr", ":8080", "HTTP listen address")
	clockSel   = flag.String("clock", "virtual", "round pacing: virtual (as fast as possible) or wall")
	interval   = flag.Duration("interval", 50*time.Millisecond, "wall time per round boundary in -clock wall mode")
	queue      = flag.Int("queue", 64, "admission queue depth (backpressure beyond this)")
	roundMin   = flag.Float64("round", 6, "scheduling round length (simulated minutes)")
	validate   = flag.Bool("validate", true, "run the invariant oracle on every round")
	addrFile   = flag.String("addr-file", "", "write the bound listen address to this file (use with -addr 127.0.0.1:0)")
	drainWait  = flag.Duration("drain", 5*time.Second, "graceful-shutdown deadline for in-flight HTTP requests")

	clusters  = flag.Int("clusters", 1, "number of federated member clusters (1 = single-cluster mode)")
	routerSel = flag.String("router", "least-queue", "federation routing policy: round-robin, least-queue, affinity")

	walDir     = flag.String("wal", "", "write-ahead journal directory (empty = no durability)")
	recoverWAL = flag.Bool("recover", false, "resume from the journal and checkpoint in -wal")
	fsyncSel   = flag.String("fsync", "group", "journal fsync policy: always, group, or off")
	fsyncEvery = flag.Duration("fsync-interval", 2*time.Millisecond, "longest a verdict waits for its group fsync (-fsync group)")
	ckptEvery  = flag.Int("checkpoint-every", 256, "journal records between engine checkpoints")
)

func main() {
	flag.Parse()

	pol, err := experiments.LookupPolicy(*schedName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		os.Exit(2)
	}
	s := pol.New()
	c, err := experiments.LookupCluster(*clusterSel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		os.Exit(2)
	}

	simOpts := sim.DefaultOptions()
	simOpts.RoundLength = *roundMin * 60
	simOpts.Validate = *validate
	opts := service.Options{
		Sim:           simOpts,
		QueueDepth:    *queue,
		RoundInterval: *interval,
	}
	if *clockSel == "wall" {
		opts.Clock = service.WallClock
	} else if *clockSel != "virtual" {
		fmt.Fprintf(os.Stderr, "hadard: unknown clock %q\n", *clockSel)
		os.Exit(2)
	}
	if *walDir == "" && *recoverWAL {
		fmt.Fprintln(os.Stderr, "hadard: -recover requires -wal")
		os.Exit(2)
	}
	if *clusters < 1 {
		fmt.Fprintf(os.Stderr, "hadard: -clusters must be at least 1, got %d\n", *clusters)
		os.Exit(2)
	}
	if *walDir != "" {
		pol, err := wal.ParsePolicy(*fsyncSel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
			os.Exit(2)
		}
		opts.WAL = &service.WALConfig{
			Dir:             *walDir,
			Policy:          pol,
			GroupInterval:   *fsyncEvery,
			CheckpointEvery: *ckptEvery,
			Recover:         *recoverWAL,
		}
	}

	// The two modes differ only in the federation and the banner.
	var svc *service.Service
	if *clusters > 1 {
		svc, err = service.NewFed(newFederation(pol, simOpts), opts)
	} else {
		svc, err = service.New(c, s, opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		os.Exit(1)
	}
	banner := fmt.Sprintf("hadard: %s on %s cluster (%d GPUs), %s clock, queue depth %d",
		s.Name(), *clusterSel, c.TotalGPUs(), *clockSel, *queue)
	if *clusters > 1 {
		banner = fmt.Sprintf("hadard: %s federation — %d x %s clusters (%d GPUs total), %s router, %s clock, queue depth %d",
			s.Name(), *clusters, *clusterSel, *clusters*c.TotalGPUs(), svc.Snapshot().Router, *clockSel, *queue)
	}
	if r := svc.Recovery(); r != nil {
		doc, _ := json.Marshal(r)
		fmt.Printf("hadard: recovered: %s\n", doc)
	}
	os.Exit(run(banner, svc))
}

// newFederation builds -clusters members, each with its own cluster and
// instance of pol, behind -router; it exits on a flag it cannot honour.
func newFederation(pol experiments.Policy, simOpts sim.Options) *federation.Federation {
	router, err := federation.NewRouter(*routerSel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		os.Exit(2)
	}
	members := make([]federation.MemberConfig, *clusters)
	for i := range members {
		// main has already accepted this name.
		mc, _ := experiments.LookupCluster(*clusterSel)
		members[i] = federation.MemberConfig{
			Name:      fmt.Sprintf("region%d", i),
			Cluster:   mc,
			Scheduler: pol.New(),
			Sim:       simOpts,
		}
	}
	fed, err := federation.New(members, router)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		os.Exit(1)
	}
	return fed
}

// run starts the service and serves it until SIGINT/SIGTERM, then
// shuts down gracefully. Returns the process exit code.
func run(banner string, svc *service.Service) int {
	svc.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
			return 1
		}
	}
	fmt.Printf("%s — listening on %s\n", banner, ln.Addr())

	srv := &http.Server{Handler: web.NewLiveServer(svc).Handler()}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stopSignals() // a second signal kills immediately

	// Graceful shutdown: drain in-flight HTTP requests, then stop the
	// service — which rejects and empties the admission queue, flushes
	// deferred group commits, writes a final checkpoint, and closes the
	// journal. After this a -recover restart replays nothing.
	fmt.Println("hadard: shutdown signal — draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "hadard: http drain: %v\n", err)
	}
	if _, err := svc.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "hadard: stop: %v\n", err)
		return 1
	}
	fmt.Println("hadard: clean shutdown")
	return 0
}
