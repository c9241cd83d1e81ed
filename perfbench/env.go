package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
	"imdpp/internal/gridcache"
	"imdpp/internal/service"
	"imdpp/internal/shard"
)

// workload is one named traffic shape.
type workload struct {
	name    string
	mix     bool    // query-mix requests instead of solves
	sharded bool    // estimation over two loopback shard workers
	clients int     // closed-loop clients (capped at nproc)
	prefix  int     // requests digested and compared traced vs untraced
	scale   float64 // Amazon preset scale
	tail    float64 // latency_tail_ms quantile: ten or more requests lie beyond it
}

// Every workload runs on the Amazon preset at scale 0.25 (200 users,
// 20 items; about 0.13 s a solve) rather than the quickstart scale 1
// (800 users; about 6 s a solve). The host's speed drifts by ±20% over
// minutes, and at scale 1 a run holds too few solves, and its queries
// move too much memory, for medians that hold from run to run: the
// quartile distance of solve latency over five seeds was 13% of the
// median, and query-mix throughput moved three times as much as at
// scale 0.25 in interleaved runs.
const benchScale = 0.25

var workloads = map[string]workload{
	"solve":         {name: "solve", clients: 1, prefix: 4, scale: benchScale, tail: 0.9},
	"solve-sharded": {name: "solve-sharded", sharded: true, clients: 1, prefix: 4, scale: benchScale, tail: 0.9},
	"query-mix":     {name: "query-mix", mix: true, clients: 2, prefix: 1000, scale: benchScale, tail: 0.99},
}

// The imdppd defaults the benchmark keeps.
const (
	gridCacheMB  = 64
	shardWorkers = 2
	probeEvery   = 5 * time.Second
)

// env is one started system: the problem, the service over it and,
// for the sharded workload, the loopback worker fleet and its pool.
type env struct {
	prob    *diffusion.Problem
	svc     *service.Service
	pool    *shard.Pool
	client  *http.Client
	servers []*http.Server
	workers []*shard.Worker

	buildDataset time.Duration // dataset generation alone
	setup        time.Duration // dataset, service, workers and pool

	// tracing decorators; nil on untraced environments
	engine  *engineTimer
	handler []*handlerTimer
}

// estimatorWorkers caps estimator goroutines per request so that
// clients × goroutines ≤ nproc.
func estimatorWorkers(clients int) int { return max(1, nproc()/clients) }

// newEnv builds the dataset and starts the system. On error every
// part already started is closed again.
func newEnv(w workload, traced bool) (e *env, err error) {
	start := time.Now()
	e = &env{}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	ds, err := dataset.Amazon(dataset.Scale(w.scale))
	if err != nil {
		return e, fmt.Errorf("dataset: %w", err)
	}
	e.prob = ds.Clone(budget, horizon)
	e.buildDataset = time.Since(start)

	cfg := service.Config{Workers: 1, SolveWorkers: estimatorWorkers(w.clients), GridCacheMB: gridCacheMB}
	backend := core.LocalEstimator
	if w.sharded {
		if backend, err = e.startFleet(traced); err != nil {
			return e, err
		}
	}
	if traced {
		e.engine = &engineTimer{}
		backend = e.engine.wrap(backend)
	}
	if w.sharded || traced {
		cfg.Backend = backend
	}
	e.svc = service.New(cfg)
	e.setup = time.Since(start)
	return e, nil
}

// startFleet starts the in-process shard workers on loopback
// listeners and a pool over them, as imdppd -worker and
// -shard-workers would: one estimator goroutine and a 64 MiB grid
// cache per worker; binary codec, weighted planning and speculation
// on the pool.
func (e *env) startFleet(traced bool) (core.EstimatorFactory, error) {
	var urls []string
	for i := 0; i < shardWorkers; i++ {
		w := shard.NewWorker(shard.WorkerConfig{
			Workers: 1,
			Grid: gridcache.New(gridcache.Config{
				MaxBytes: gridCacheMB << 20,
				KeyFn:    func(p *diffusion.Problem) string { return service.HashProblem(p).String() },
			}),
		})
		mux := http.NewServeMux()
		w.Mount(mux)
		mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "application/json")
			_, _ = rw.Write([]byte(`{"ok":true,"worker":true}`))
		})
		var h http.Handler = mux
		if traced {
			t := &handlerTimer{}
			e.handler = append(e.handler, t)
			h = t.wrap(h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("worker listen: %w", err)
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		e.servers = append(e.servers, srv)
		e.workers = append(e.workers, w)
		go func() { _ = srv.Serve(ln) }()
		urls = append(urls, "http://"+ln.Addr().String())
	}
	e.client = &http.Client{Timeout: 10 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	e.pool = shard.NewPool(urls, e.client)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n := e.pool.Check(ctx); n != shardWorkers {
		return nil, fmt.Errorf("shard pool: %d of %d workers healthy", n, shardWorkers)
	}
	e.pool.StartHealthLoop(probeEvery)
	return shard.Backend(e.pool), nil
}

// close stops everything the environment started; it is safe on a
// partly started environment and idempotent.
func (e *env) close() {
	if e == nil {
		return
	}
	if e.svc != nil {
		e.svc.Close()
		e.svc = nil
	}
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
	for _, srv := range e.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = srv.Close()
		}
		cancel()
	}
	e.servers = nil
	if e.client != nil {
		e.client.CloseIdleConnections()
		e.client = nil
	}
}
