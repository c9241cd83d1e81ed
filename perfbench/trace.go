package main

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/shard"
)

// engineTimer accumulates the time and work of every estimator built
// through the factory it wraps: the traced run's view of the engine
// layer (and, on the sharded workload, of the shard fan-out below it).
type engineTimer struct {
	busy       atomic.Int64 // ns inside estimator calls
	calls      atomic.Uint64
	groups     atomic.Uint64
	samples    atomic.Uint64
	stateBytes atomic.Uint64 // largest per-worker state seen
}

func (t *engineTimer) wrap(f core.EstimatorFactory) core.EstimatorFactory {
	return func(p *diffusion.Problem, samples int, seed uint64, workers int) core.Estimator {
		return &timedEstimator{inner: f(p, samples, seed, workers), t: t}
	}
}

// busyTime reads the accumulated estimator time.
func (t *engineTimer) busyTime() time.Duration { return time.Duration(t.busy.Load()) }

// timedEstimator times every evaluation of the estimator it wraps.
// Like the estimators it wraps, it serves one goroutine at a time.
type timedEstimator struct {
	inner core.Estimator
	t     *engineTimer
	seen  uint64 // inner.SamplesDone at the last call's end
}

func (e *timedEstimator) done(start time.Time, groups int) {
	e.t.busy.Add(int64(time.Since(start)))
	e.t.calls.Add(1)
	e.t.groups.Add(uint64(groups))
	n := e.inner.SamplesDone()
	e.t.samples.Add(n - e.seen)
	e.seen = n
	b := e.inner.StateBytes()
	for {
		cur := e.t.stateBytes.Load()
		if b <= cur || e.t.stateBytes.CompareAndSwap(cur, b) {
			break
		}
	}
}

func (e *timedEstimator) Bind(ctx context.Context) { e.inner.Bind(ctx) }
func (e *timedEstimator) Reseed(seed uint64)       { e.inner.Reseed(seed) }
func (e *timedEstimator) SamplesDone() uint64      { return e.inner.SamplesDone() }
func (e *timedEstimator) StateBytes() uint64       { return e.inner.StateBytes() }

func (e *timedEstimator) Sigma(seeds []diffusion.Seed) float64 {
	defer e.done(time.Now(), 1)
	return e.inner.Sigma(seeds)
}

func (e *timedEstimator) Run(seeds []diffusion.Seed, market []bool, withPi bool) diffusion.Estimate {
	defer e.done(time.Now(), 1)
	return e.inner.Run(seeds, market, withPi)
}

func (e *timedEstimator) RunBatch(groups [][]diffusion.Seed, market []bool) []diffusion.Estimate {
	defer e.done(time.Now(), len(groups))
	return e.inner.RunBatch(groups, market)
}

func (e *timedEstimator) RunBatchPi(groups [][]diffusion.Seed, market []bool) []diffusion.Estimate {
	defer e.done(time.Now(), len(groups))
	return e.inner.RunBatchPi(groups, market)
}

func (e *timedEstimator) RunBatchMasked(groups [][]diffusion.Seed, masks [][]bool, withPi bool) []diffusion.Estimate {
	defer e.done(time.Now(), len(groups))
	return e.inner.RunBatchMasked(groups, masks, withPi)
}

func (e *timedEstimator) SigmaBatch(groups [][]diffusion.Seed) []float64 {
	defer e.done(time.Now(), len(groups))
	return e.inner.SigmaBatch(groups)
}

func (e *timedEstimator) MeanWeights(seeds []diffusion.Seed, users []int) []float64 {
	defer e.done(time.Now(), 1)
	return e.inner.MeanWeights(seeds, users)
}

// AttachGrid forwards the grid-cache view core.AttachGridCache hands a
// wrapping backend. Without it the decorator would silently detach the
// cache and the traced run would measure a different program.
func (e *timedEstimator) AttachGrid(v diffusion.GridCache) {
	switch in := e.inner.(type) {
	case *diffusion.Estimator:
		in.Grid = v
	case interface{ AttachGrid(diffusion.GridCache) }:
		in.AttachGrid(v)
	}
}

// GridStats forwards the inner estimator's cache-served counters.
func (e *timedEstimator) GridStats() (hits, samplesSaved uint64) {
	if gs, ok := e.inner.(interface{ GridStats() (uint64, uint64) }); ok {
		return gs.GridStats()
	}
	return 0, 0
}

// handlerTimer is timing middleware around one in-process shard
// worker: the worker-side busy time of its estimate RPCs.
type handlerTimer struct {
	busy atomic.Int64
	rpcs atomic.Uint64
}

func (t *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != shard.PathEstimate {
			h.ServeHTTP(rw, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(rw, r)
		t.busy.Add(int64(time.Since(start)))
		t.rpcs.Add(1)
	})
}
