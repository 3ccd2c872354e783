// Command tescbench regenerates the tables and figures of the paper's
// evaluation section (§5) on the surrogates, and runs the nightly soaks.
//
// Usage:
//
//	tescbench -exp fig5            # one experiment
//	tescbench -exp all             # everything (minutes at default scale)
//	tescbench -exp table1 -dblp-scale 1.0 -pairs 100   # paper-sized
//
// Output is aligned text: one block per figure/table, directly
// comparable with the published plots (see README's "Benchmarks"
// section).
//
// The -soak* modes run an in-process tescd for the given duration and
// assert their invariants every cycle; the nightly job runs them under
// -race. Performance is measured by cmd/tescperf and the packages'
// go test -bench benchmarks, not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tesc/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected mode and returns the exit code:
// 0 on success, 1 when the mode fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tescbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := bench.DefaultConfig()
	var (
		exp        = fs.String("exp", "all", "experiment id ("+strings.Join(bench.IDs(), " | ")+" | all)")
		dblpScale  = fs.Float64("dblp-scale", def.DBLPScale, "DBLP surrogate scale (1.0 = ~100k nodes; paper ≈ 9.6)")
		intrNodes  = fs.Int("intrusion-nodes", def.IntrusionNodes, "Intrusion surrogate node count (paper: 200858)")
		twScaleExp = fs.Int("twitter-scale-exp", def.TwitterScaleExp, "Twitter surrogate R-MAT exponent (paper ≈ 24)")
		pairs      = fs.Int("pairs", def.Pairs, "event pairs per recall point (paper: 100)")
		sample     = fs.Int("n", def.SampleSize, "reference sample size (paper: 900)")
		reps       = fs.Int("reps", def.Reps, "repetitions for timing points (paper: 50)")
		seed       = fs.Uint64("seed", def.Seed, "random seed")
		workers    = fs.Int("workers", 0, "index-construction workers (0 = GOMAXPROCS)")

		soak         = fs.Duration("soak", 0, "run an in-process tescd soak for this duration: FlipStream mutations against live monitors (built for the nightly -race job)")
		soakRecover  = fs.Duration("soak-recover", 0, "run a kill-and-recover soak for this duration: a durable tescd is killed mid-stream and rebooted from snapshot+WAL in a loop, verifying epoch continuity each cycle")
		soakReplica  = fs.Duration("soak-replica", 0, "run a replication soak for this duration: two read replicas follow a churning primary through a faulty transport (drops, corruption, partitions) with crash-restarts, verifying convergence after every heal")
		soakOverload = fs.Duration("soak-overload", 0, "run an overload soak for this duration: cycles of flood burst + acked mutations + graceful drain + reboot, verifying typed sheds and exact acked-epoch recovery each cycle (built for the nightly -race job)")
		soakCluster  = fs.Duration("soak-cluster", 0, "run a cluster soak for this duration: a 3-member coordinator (owner + replica each) against a single-node oracle, with owner kills, replica-served reads, typed no_owner sheds, and snapshot+WAL rejoin each cycle; every read must be byte-equivalent to the oracle (built for the nightly -race job)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	exitCode := func(err error) int {
		if err == nil {
			return 0
		}
		fmt.Fprintln(stderr, "tescbench:", err)
		return 1
	}

	for _, s := range []struct {
		d   time.Duration
		run func(time.Duration, uint64, io.Writer) error
	}{
		{*soak, runSoak},
		{*soakRecover, runSoakRecover},
		{*soakReplica, runSoakReplica},
		{*soakOverload, runSoakOverload},
		{*soakCluster, runSoakCluster},
	} {
		if s.d > 0 {
			return exitCode(s.run(s.d, *seed, stdout))
		}
	}

	cfg := bench.Config{
		DBLPScale:       *dblpScale,
		IntrusionNodes:  *intrNodes,
		TwitterScaleExp: *twScaleExp,
		Pairs:           *pairs,
		SampleSize:      *sample,
		Reps:            *reps,
		Seed:            *seed,
		Workers:         *workers,
	}
	if *exp == "all" {
		return exitCode(bench.RunAll(cfg, stdout))
	}
	runner, ok := bench.Registry[*exp]
	if !ok {
		fmt.Fprintf(stderr, "tescbench: unknown experiment %q (have: %s)\n", *exp, strings.Join(bench.IDs(), ", "))
		return 2
	}
	return exitCode(runner(cfg, stdout))
}
