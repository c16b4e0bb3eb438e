// Command e2ebench runs lemonade's end-to-end benchmark: one workload
// against in-process lemonaded nodes over loopback HTTP, with the
// correctness gate, printing one JSON result as the last line of
// standard output.
//
//	e2ebench --workload unlock|targeting|cluster --seed N --seconds S --trace 0|1 [-dir D]
//
// It exits 0 when the run was correct and no op failed, 1 when the run
// completed but was not (the result is still printed), and 2 on a usage
// or set-up error (nothing printed).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"lemonade/e2ebench"
)

// deadline bounds a whole run: a wedged run exits rather than hang.
const deadline = 175 * time.Second

func main() {
	workload := flag.String("workload", "", "workload: unlock, targeting or cluster")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build", "scratch directory for the nodes' data")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}

	// The composition root: the wall clock enters here, as a monotonic
	// reading since start, and nowhere else.
	start := time.Now()
	now := func() int64 { return int64(time.Since(start)) }
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v\n", deadline)
		os.Exit(2)
	})
	defer watchdog.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := e2ebench.Run(ctx, e2ebench.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		Dir:      filepath.Join(*dir, "e2ebench-"+strconv.Itoa(os.Getpid())),
		Now:      now,
		Conns:    runtime.GOMAXPROCS(0),
		Log:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "e2ebench: correctness: %s\n", p)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: checksum %s, %d ops, %d failed, %.1fs\n",
		*workload, *seed, res.Checksum, res.Attempted, res.Failed, float64(now())/1e9)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: encoding result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Pass() {
		os.Exit(1)
	}
}
