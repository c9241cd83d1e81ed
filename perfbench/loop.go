package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/gridcache"
	"imdpp/internal/service"
)

// outcome is one finished request. It is kept small, and the request
// itself is recomputed from the stream by index: a run holds hundreds
// of thousands of queries, and their records would show in
// peak_rss_mb.
type outcome struct {
	idx    int32
	bad    bool // errored or failed an output check
	sketch bool // the sketch backend answered a sigma query
	lat    time.Duration
	sigma  float64        // a sigma query's σ
	answer uint64         // hash of all the answer's bits
	sol    *core.Solution // solves and re-submitted solves
}

// pass is one closed-loop run over a stream on one environment.
type pass struct {
	outs    []outcome       // ordered by request index, no gaps
	errs    map[int32]error // the requests that failed, by index
	clients int
	elapsed time.Duration // first issue to last completion
	// the service's grid work after the prefix: lookups and lookups
	// answered without simulating (memory hits, joined flights, disk
	// hits). Shard workers' grids are left out: weighted planning and
	// speculation make their ranges, so their lookups, timing-dependent.
	prefixLookups, prefixServed uint64
}

// prime answers, before timing, the solves query-mix re-submits;
// other workloads need nothing.
func (e *env) prime(ctx context.Context, w workload) ([]*core.Solution, error) {
	if !w.mix {
		return nil, nil
	}
	var sols []*core.Solution
	for i := uint64(0); i < primed; i++ {
		sol, err := e.solve(ctx, primeOptions(i))
		if err != nil {
			return nil, fmt.Errorf("prime solve %d: %w", i, err)
		}
		sols = append(sols, sol)
	}
	return sols, nil
}

func (e *env) solve(ctx context.Context, opt core.Options) (*core.Solution, error) {
	job, _, err := e.svc.Submit(service.Request{Problem: e.prob, Options: opt})
	if err != nil {
		return nil, err
	}
	return job.Wait(ctx)
}

// do performs one request and times it.
func (e *env) do(ctx context.Context, s *stream, r request) (outcome, error) {
	o := outcome{idx: int32(r.idx)}
	start := time.Now()
	var err error
	switch r.kind {
	case kindSolve:
		o.sol, err = e.solve(ctx, solveOptions(r.seed))
	case kindResolve:
		o.sol, err = e.solve(ctx, primeOptions(r.seed))
	default:
		opt := service.SigmaOptions{MC: sigmaMC, Seed: r.seed}
		if r.kind.sketch() {
			opt.Epsilon, opt.Delta = sketchEps, sketchDelta
		}
		var (
			est     diffusion.Estimate
			backend string
		)
		est, backend, err = e.svc.Sigma(ctx, e.prob, s.groups[r.group], opt)
		o.lat = time.Since(start)
		o.sigma, o.answer, o.sketch = est.Sigma, estimateSum(est), backend == service.BackendSketch
		return o, err
	}
	o.lat = time.Since(start)
	o.answer = solutionSum(o.sol)
	return o, err
}

// run drives the stream with w's clients in a closed loop: first the
// w.prefix requests that are digested (a barrier follows them, so
// their grid work can be read exactly), then further requests until
// seconds have passed since the start. seconds ≤ 0 stops after the
// prefix.
func (e *env) run(ctx context.Context, s *stream, w workload, seconds float64) *pass {
	ps := &pass{clients: min(w.clients, max(1, nproc())), errs: map[int32]error{}}
	start := time.Now()
	ps.outs = e.drive(ctx, s, ps, 0, func(i int) bool { return i < w.prefix })
	g := e.svc.Metrics().Grid
	ps.prefixLookups, ps.prefixServed = g.Lookups, g.Hits+g.Singleflights+g.DiskHits
	if seconds > 0 {
		end := start.Add(time.Duration(seconds * float64(time.Second)))
		ps.outs = append(ps.outs, e.drive(ctx, s, ps, w.prefix, func(int) bool { return time.Now().Before(end) })...)
	}
	ps.elapsed = time.Since(start)
	slices.SortFunc(ps.outs, func(a, b outcome) int { return int(a.idx - b.idx) })
	return ps
}

// drive runs the pass's clients, each taking the next request index
// and performing it while issue allows; failures go to ps.errs. issue
// must be monotone (once false, false for every later index), which
// keeps the finished indices gap-free.
func (e *env) drive(ctx context.Context, s *stream, ps *pass, from int, issue func(int) bool) []outcome {
	var (
		next atomic.Int64
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	next.Store(int64(from))
	for range ps.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if !issue(i) {
					return
				}
				o, err := e.do(ctx, s, s.at(i))
				mu.Lock()
				if err != nil {
					o.bad = true
					ps.errs[o.idx] = err
				}
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// gridStats sums the grid caches: the service's and each worker's.
func (e *env) gridStats() gridcache.Stats {
	g := e.svc.Metrics().Grid
	for _, w := range e.workers {
		if wg := w.Stats().Grid; wg != nil {
			g.Lookups += wg.Lookups
			g.Hits += wg.Hits
			g.DiskHits += wg.DiskHits
			g.Singleflights += wg.Singleflights
			g.Evictions += wg.Evictions
			g.Bytes += wg.Bytes
			g.Entries += wg.Entries
			g.SamplesSaved += wg.SamplesSaved
		}
	}
	return g
}
