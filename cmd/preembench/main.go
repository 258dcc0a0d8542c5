// Command preembench regenerates the tables and figures of the
// LibPreemptible paper (HPCA 2024) on the simulated substrate, and
// runs the chaos soak (internal/soak) against the live server stack.
// The live stack's performance is measured by the repository benchmark,
// `bash benchmark/run.sh`, not from here.
//
// Usage:
//
//	preembench -list                 list experiment ids
//	preembench -exp fig8             regenerate one experiment
//	preembench -all                  regenerate everything
//	preembench -exp fig8 -quick      fast, low-fidelity run
//	preembench -seed 7               change the deterministic seed
//
// Chaos soak: run the live sharded stack under seeded wire faults,
// shard kills, and panic poisoning (internal/soak) while continuously
// checking invariants — per-key model checking, STATS2 counter
// conservation, goroutine/fd/heap drift — appending one JSON report
// line per run and exiting nonzero on any violation:
//
//	preembench -soak -duration 60s -seed 1
//	preembench -soak -scenario wire -shards 4 -clients 8
//	preembench -soak -scenario crash -duration 30s   whole-process SIGKILL + WAL recovery
//	preembench -soak -planonly -seed 1       print the fault schedule
//
// Output is tab-separated tables, one block per artifact, in the same
// row/series structure the paper reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/soak"
	"repro/preemptsim"
)

func main() {
	// The crash soak re-execs this binary as its server child; in a
	// normal invocation this is a no-op.
	soak.ServerMainIfRequested()
	var (
		list  = flag.Bool("list", false, "list experiment ids and exit")
		exp   = flag.String("exp", "", "experiment id to run (see -list)")
		all   = flag.Bool("all", false, "run every experiment")
		quick = flag.Bool("quick", false, "reduced-fidelity quick run")
		seed  = flag.Uint64("seed", 1, "deterministic seed")

		doSoak   = flag.Bool("soak", false, "run a chaos soak against the live stack instead of a simulation experiment")
		soakDur  = flag.Duration("duration", 60*time.Second, "soak length (soak mode)")
		soakScn  = flag.String("scenario", "combined", "soak injector set: quiet|wire|kills|combined|crash (soak mode)")
		soakSh   = flag.Int("shards", 4, "server shard count (soak mode)")
		soakCl   = flag.Int("clients", 8, "client workers (soak mode)")
		soakOut  = flag.String("soakout", "SOAK.jsonl", "append-only soak report file (soak mode; empty = no file)")
		planOnly = flag.Bool("planonly", false, "print the soak's fault plan JSON and exit without running (soak mode)")
	)
	flag.Parse()

	if *doSoak {
		os.Exit(runSoak(soakFlags{
			seed:     *seed,
			duration: *soakDur,
			scenario: *soakScn,
			shards:   *soakSh,
			clients:  *soakCl,
			out:      *soakOut,
			planOnly: *planOnly,
		}))
	}

	if *list {
		for _, name := range preemptsim.Experiments() {
			fmt.Println(name)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		ids = preemptsim.Experiments()
	case *exp != "":
		ids = []string{*exp}
	default:
		fmt.Fprintln(os.Stderr, "preembench: need -exp <id>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}

	opts := preemptsim.Options{Quick: *quick, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		tables, err := preemptsim.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "preembench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("### experiment %s (%.1fs)\n\n", id, time.Since(start).Seconds())
		for _, t := range tables {
			fmt.Println(t.String())
		}
	}
}
