// Command prvm-serve runs the placement daemon: a PageRankVM placement
// engine behind an HTTP/JSON API, with sharded cluster state, group
// commit, and write-ahead-log durability (API.md, DESIGN.md §14).
//
// Usage:
//
//	prvm-serve [-addr :8080] [-data dir] [-shards n] [-pms n]
//	           [-seed s] [-fsync]
//	           [-snapshot-every n] [-rebalance-every d]
//	           [-rebalance-budget n] [-rebalance-pm-budget n]
//	           [-drain-below f]
//
// The cluster is -pms hosts of each Table II PM type from the Amazon
// catalog; rank tables are built at startup. With -data set, accepted
// decisions are appended to a WAL in that directory and periodic
// snapshots bound replay time; restarting with the same -data and
// -shards recovers the exact pre-crash state. Without -data the server
// is in-memory only.
//
// Telemetry (Prometheus metrics, decision traces, pprof) is served
// in-process on /metrics, /events and /debug/pprof/ of the same
// listener. SIGINT/SIGTERM shut down gracefully: in-flight requests
// finish, a final snapshot is cut, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pagerankvm/internal/deschedule"
	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prvm-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("prvm-serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		dataDir   = fs.String("data", "", "durability directory for WAL + snapshots (empty = in-memory)")
		shards    = fs.Int("shards", 0, "state shards (0 = default, 4)")
		pms       = fs.Int("pms", 64, "PMs per Table II type")
		seed      = fs.Int64("seed", 1, "base placer seed")
		fsync     = fs.Bool("fsync", false, "fsync the WAL before acknowledging (durable across power loss)")
		snapEvery = fs.Int64("snapshot-every", 0, "ops between automatic snapshots (0 = default, <0 disables)")
		rebEvery  = fs.Duration("rebalance-every", 0, "period between background descheduler rounds (0 disables the loop)")
		rebBudget = fs.Int("rebalance-budget", 0, "max migrations per descheduler round (0 = default)")
		rebPM     = fs.Int("rebalance-pm-budget", 0, "max migrations off one PM per round (0 = default)")
		drainFrac = fs.Float64("drain-below", 0, "fill fraction under which the descheduler evacuates a PM (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cat, err := experiments.AmazonCatalog()
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "building rank tables...")
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		return err
	}

	observer := obs.New()
	ring := obs.NewRingSink(4096)
	observer.SetSink(ring)

	s, err := serve.New(serve.Config{
		Rankers:        reg,
		PMs:            cat.BuildCluster(*pms).PMs(),
		NewVM:          cat.NewVM,
		Shards:         *shards,
		Seed:           *seed,
		DataDir:        *dataDir,
		Fsync:          *fsync,
		SnapshotEvery:  *snapEvery,
		Obs:            observer,
		Sink:           ring,
		RebalanceEvery: *rebEvery,
		Rebalance: deschedule.Config{
			MaxMovesPerRound: *rebBudget,
			MaxMovesPerPM:    *rebPM,
			DrainBelow:       *drainFrac,
		},
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		info := s.Recovery()
		fmt.Fprintf(os.Stderr, "recovered %d VMs (snapshot seq %d in %.3fs, %d WAL ops replayed in %.3fs, %d through encoding/json, truncated=%v)\n",
			info.VMs, info.SnapshotSeq, info.SnapshotLoadSeconds, info.ReplayedOps, info.ReplaySeconds, info.SlowLines, info.Truncated)
	}

	hs := &http.Server{Addr: *addr, Handler: s}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "prvm-serve on %s (shards=%d pms=%d/type data=%q fsync=%v)\n",
		*addr, s.NumShards(), *pms, *dataDir, *fsync)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		_ = s.Close()
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "caught %v, shutting down...\n", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "prvm-serve: http shutdown:", err)
	}
	return s.Close()
}
