package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tesc/internal/cluster"
	"tesc/internal/server"
)

// runCoordinator serves the coordinator tier: the single-node API,
// answered by routing to the configured members (see docs/CLUSTER.md).
func runCoordinator(addr, peers, topoFile string, probeIvl time.Duration, failThresh int, maxLag uint64, quiet bool, logger *log.Logger) error {
	var top cluster.Topology
	var err error
	switch {
	case peers != "" && topoFile != "":
		return fmt.Errorf("-peers and -topology are mutually exclusive")
	case peers != "":
		top, err = cluster.ParsePeers(peers)
	case topoFile != "":
		top, err = cluster.LoadTopology(topoFile)
	default:
		return fmt.Errorf("-coordinator needs -peers or -topology")
	}
	if err != nil {
		return err
	}

	cfg := cluster.Config{
		Topology:      top,
		ProbeInterval: probeIvl,
		FailThreshold: failThresh,
		MaxLagEpochs:  maxLag,
	}
	if !quiet {
		cfg.Log = logger
	}
	coord, err := cluster.NewCoordinator(cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go coord.Run(ctx)

	hs := server.NewHTTPServer(addr, coord.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Printf("coordinating %d member(s), listening on %s", len(top.Members), addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(shutCtx)
}
