// Command perfbench is the repository benchmark. It starts the imdpp
// serving stack in one process — dataset generation, the service
// (scheduler, result cache, sigma), the Dysim solver, the batch
// Monte-Carlo engine, the grid cache, the RR sketch and, for the
// sharded workload, two shard workers on loopback listeners — drives
// one named workload through it in a closed loop, checks every answer
// and prints the metrics.
//
//	bash perfbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// carrying the end-to-end metrics; with --trace 1 the same request
// stream runs with timing decorators around the estimator factory and
// the shard workers' handlers, and the object carries the per-layer
// metrics. Earlier lines print every metric as "metric <name> <value>
// <unit>", the result digest and any failed check. The process starts
// no child processes, closes everything it starts, checks that its
// goroutine count returns to the starting level and exits non-zero at
// a hard deadline rather than hang. See README.md for the layers and
// what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

type options struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
}

// Set-ups per run (setup_s is their median) and the hard deadline of
// a run, inside the 180 s a run may take.
const (
	setups   = 21
	deadline = 170 * time.Second
)

func nproc() int { return runtime.NumCPU() }

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// a hard deadline: exit non-zero rather than hang. Nothing outlives
	// the process — it starts no child processes — so exiting from here
	// releases every listener and goroutine.
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: hard deadline of %v passed; exiting\n", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	name := fs.String("workload", "", "workload: solve, solve-sharded or query-mix")
	seed := fs.Uint64("seed", 1, "workload seed; the requests are generated from it")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		return options{}, fmt.Errorf("unknown --workload %q (want solve, solve-sharded or query-mix)", *name)
	case *trace != 0 && *trace != 1:
		return options{}, errors.New("--trace must be 0 or 1")
	case !(*seconds > 0):
		return options{}, errors.New("--seconds must be positive")
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1}, nil
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run performs one benchmark run and reports what the last line
// prints; the other lines go to out.
func run(opt options, out io.Writer) (res result, err error) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	w := opt.workload

	// set the system up `setups` times; the last set-up is measured
	// and, when tracing, the one before it runs the untraced reference
	// over the digested prefix
	var (
		setupTimes, builds []float64
		ref, sys           *env
	)
	defer func() {
		ref.close()
		sys.close()
		if lerr := settle(base); lerr != nil && err == nil {
			err = lerr
		}
	}()
	for i := 0; i < setups; i++ {
		traced := opt.trace && i == setups-1
		e, err := newEnv(w, traced)
		if err != nil {
			return res, err
		}
		setupTimes = append(setupTimes, e.setup.Seconds())
		builds = append(builds, e.buildDataset.Seconds())
		if i < setups-1 {
			ref.close()
			ref = e
		} else {
			sys = e
		}
	}
	if !opt.trace {
		ref.close()
		ref = nil
	}

	s := newStream(w, opt.seed, sys.prob)
	c := &checker{p: sys.prob}
	var refPass *pass
	if ref != nil {
		refPrimes, err := ref.prime(ctx, w)
		if err != nil {
			return res, err
		}
		refPass = ref.run(ctx, s, w, 0)
		c.outcomes(s, refPass, refPrimes)
		ref.close()
		ref = nil
	}
	t0 := time.Now()
	primes, err := sys.prime(ctx, w)
	if err != nil {
		return res, err
	}
	t1 := time.Now()
	before := sys.counters()
	ps := sys.run(ctx, s, w, opt.seconds)
	after := sys.counters()
	t2 := time.Now()
	c.outcomes(s, ps, primes)
	if sys.pool != nil {
		c.probe(sys.pool)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: primed in %v, measured %v, checked in %v\n",
		w.name, t1.Sub(t0).Round(time.Millisecond), t2.Sub(t1).Round(time.Millisecond), time.Since(t2).Round(time.Millisecond))
	sum := digest(s, ps.outs, w.prefix)
	fmt.Fprintf(out, "digest %s over the first %d requests\n", sum, min(w.prefix, len(ps.outs)))
	if refPass != nil {
		c.check(digest(s, refPass.outs, w.prefix) == sum, "traced digest %s differs from the untraced %s", sum, digest(s, refPass.outs, w.prefix))
		c.check(refPass.prefixLookups == ps.prefixLookups && refPass.prefixServed == ps.prefixServed,
			"traced grid lookups/served %d/%d differ from the untraced %d/%d",
			ps.prefixLookups, ps.prefixServed, refPass.prefixLookups, refPass.prefixServed)
	}
	for _, n := range c.notes {
		fmt.Fprintln(out, "check failed:", n)
	}
	if ctx.Err() != nil {
		return res, fmt.Errorf("deadline passed during the run: %w", ctx.Err())
	}

	rep := newReport()
	endToEnd(rep, w, ps, setupTimes, c)
	if opt.trace {
		perLayer(rep, s, ps, sys, before, after, builds)
	}
	rep.print(out)
	res = result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	names := endToEndNames
	if opt.trace {
		names = perLayerNames
	}
	for _, n := range names {
		m, ok := rep.m[n]
		if !ok {
			return res, fmt.Errorf("metric %s was not computed", n)
		}
		res.Metrics[n] = m
	}
	return res, nil
}

// settle waits for the goroutines the run started to end, and reports
// a leak if they do not within 15 s. The wait is not instant: a shard
// worker may still be computing a range whose speculative duplicate
// won, after the RPC that asked for it was cancelled.
func settle(base int) error {
	until := time.Now().Add(15 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(until) {
			buf := make([]byte, 1<<16)
			fmt.Fprintf(os.Stderr, "%s\n", buf[:runtime.Stack(buf, true)])
			return fmt.Errorf("goroutine leak: %d running at exit, %d at start", n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
