package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"imdpp/internal/gridcache"
	"imdpp/internal/service"
	"imdpp/internal/shard"
)

// The metric names of the final line. endToEndNames are measured with
// tracing off and hold on every workload; perLayerNames come from the
// traced pass. BENCHMARK.json lists the same names.
var (
	endToEndNames = []string{"setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_per_s", "peak_rss_mb"}
	perLayerNames = []string{
		"dataset.build_s",
		"service.self_ms", "service.queue_wait_ms", "service.result_cache_hits",
		"core.self_s", "core.select_s", "core.market_s", "core.schedule_s", "core.sigma_evals", "core.si_evals",
		"engine.busy_s", "engine.calls", "engine.groups_per_call", "engine.samples", "engine.samples_per_s", "engine.state_bytes",
		"grid.lookups", "grid.hits", "grid.hit_ratio", "grid.samples_saved", "grid.evictions", "grid.bytes",
		"sketch.builds", "sketch.cache_hits", "sketch.hit_ratio", "sketch.build_ms",
		"shard.rpcs", "shard.rpc_p50_ms", "shard.rpc_p99_ms", "shard.worker_busy_s", "shard.wire_s",
		"shard.bytes_tx", "shard.bytes_rx", "shard.redispatches", "shard.speculative_hits",
		"shard.local_fallbacks", "shard.worker_samples",
		"trace.unattributed_s",
	}
)

// report collects metrics in the order they are set.
type report struct {
	m     map[string]metric
	order []string
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.m[name]; !ok {
		r.order = append(r.order, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

func (r *report) print(w io.Writer) {
	for _, n := range r.order {
		fmt.Fprintf(w, "metric %s %s %s\n", n, strconv.FormatFloat(r.m[n].Value, 'g', -1, 64), r.m[n].Unit)
	}
}

// endToEnd sets the end-to-end metrics of a pass, plus the
// workload-specific names (solve_s; queries_per_s, query_p50_ms,
// query_p99_ms) and failed_share.
func endToEnd(r *report, w workload, ps *pass, setupTimes []float64, c *checker) {
	lats := latencies(ps.outs)
	ok := 0
	for _, o := range ps.outs {
		if !o.bad {
			ok++
		}
	}
	r.set("setup_s", median(setupTimes), "s")
	r.set("latency_p50_ms", quantile(lats, 0.5)*1e3, "ms")
	r.set("latency_tail_ms", quantile(lats, w.tail)*1e3, "ms")
	r.set("tail_quantile", w.tail, "ratio")
	r.set("throughput_per_s", float64(ok)/ps.elapsed.Seconds(), "1/s")
	r.set("peak_rss_mb", peakRSS(), "MiB")
	r.set("requests", float64(len(ps.outs)), "count")
	r.set("failed_share", float64(c.failed)/float64(max(1, c.attempted)), "ratio")
	if w.mix {
		r.set("queries_per_s", float64(ok)/ps.elapsed.Seconds(), "1/s")
		r.set("query_p50_ms", quantile(lats, 0.5)*1e3, "ms")
		r.set("query_p99_ms", quantile(lats, 0.99)*1e3, "ms")
	} else {
		r.set("solve_s", quantile(lats, 0.5), "s")
	}
}

// counters is a snapshot of every program-side counter the per-layer
// metrics difference over the measured pass.
type counters struct {
	svc     service.Metrics
	grid    gridcache.Stats
	pool    shard.PoolStats
	rpcs    float64 // estimate RPCs answered
	rpcMs   float64 // and their summed latency
	workers []shard.WorkerStats
	engine  engineTotals
	handler time.Duration
}

type engineTotals struct {
	busy                   time.Duration
	calls, groups, samples uint64
}

func (e *env) counters() counters {
	c := counters{svc: e.svc.Metrics(), grid: e.gridStats()}
	if e.pool != nil {
		c.pool = e.pool.Snapshot()
		h := e.pool.RPCLatency()
		c.rpcs, c.rpcMs = float64(h.Count), float64(h.Count)*h.MeanMs
	}
	for _, w := range e.workers {
		c.workers = append(c.workers, w.Stats())
	}
	if t := e.engine; t != nil {
		c.engine = engineTotals{t.busyTime(), t.calls.Load(), t.groups.Load(), t.samples.Load()}
	}
	for _, h := range e.handler {
		c.handler += time.Duration(h.busy.Load())
	}
	return c
}

// perLayer sets the per-layer metrics of a traced pass from the
// counters before and after it and from the pass's own timings.
func perLayer(r *report, s *stream, ps *pass, e *env, a, b counters, builds []float64) {
	r.set("dataset.build_s", median(builds), "s")

	// service: request wall minus what the solver (solves) or the
	// estimator (MC sigma queries) accounts for
	var (
		wall, solveWall, sigmaWall, coreTotal, selectT, marketT, schedT time.Duration
		sigmaEvals, siEvals, solves, sigmaN                             int
	)
	for _, o := range ps.outs {
		wall += o.lat
		switch kd := s.at(int(o.idx)).kind; {
		case kd == kindSolve && o.sol != nil:
			st := o.sol.Stats
			solves++
			solveWall += o.lat
			coreTotal += st.TotalTime
			selectT += st.SelectTime
			marketT += st.MarketTime
			schedT += st.ScheduleTime
			sigmaEvals += st.SigmaEvals
			siEvals += st.SIEvals
		case kd == kindMCHot || kd == kindMCFresh:
			sigmaWall += o.lat
			sigmaN++
		}
	}
	engBusy := b.engine.busy - a.engine.busy
	switch {
	case solves > 0:
		r.set("service.self_ms", ms(solveWall-coreTotal)/float64(solves), "ms")
	case sigmaN > 0:
		r.set("service.self_ms", ms(sigmaWall-engBusy)/float64(sigmaN), "ms")
	}
	r.set("service.queue_wait_ms", b.svc.Latency.QueueWait.MeanMs, "ms")
	r.set("service.result_cache_hits", float64(b.svc.CacheHits-a.svc.CacheHits), "count")

	coreSelf := time.Duration(0)
	if solves > 0 { // solves are the only estimator users then
		coreSelf = coreTotal - engBusy
	}
	r.set("core.self_s", coreSelf.Seconds(), "s")
	r.set("core.select_s", selectT.Seconds(), "s")
	r.set("core.market_s", marketT.Seconds(), "s")
	r.set("core.schedule_s", schedT.Seconds(), "s")
	r.set("core.sigma_evals", float64(sigmaEvals), "count")
	r.set("core.si_evals", float64(siEvals), "count")

	calls := b.engine.calls - a.engine.calls
	samples := b.engine.samples - a.engine.samples
	r.set("engine.busy_s", engBusy.Seconds(), "s")
	r.set("engine.calls", float64(calls), "count")
	r.set("engine.groups_per_call", ratio(float64(b.engine.groups-a.engine.groups), float64(calls)), "count")
	r.set("engine.samples", float64(samples), "count")
	r.set("engine.samples_per_s", ratio(float64(samples), engBusy.Seconds()), "1/s")
	r.set("engine.state_bytes", float64(e.engine.stateBytes.Load()), "bytes")

	lookups := b.grid.Lookups - a.grid.Lookups
	hits := b.grid.Hits - a.grid.Hits
	r.set("grid.lookups", float64(lookups), "count")
	r.set("grid.hits", float64(hits), "count")
	r.set("grid.hit_ratio", ratio(float64(hits), float64(lookups)), "ratio")
	r.set("grid.samples_saved", float64(b.grid.SamplesSaved-a.grid.SamplesSaved), "count")
	r.set("grid.evictions", float64(b.grid.Evictions-a.grid.Evictions), "count")
	r.set("grid.bytes", float64(b.grid.Bytes), "bytes")

	skBuilds := b.svc.Sketch.Builds - a.svc.Sketch.Builds
	skHits := b.svc.Sketch.CacheHits - a.svc.Sketch.CacheHits
	r.set("sketch.builds", float64(skBuilds), "count")
	r.set("sketch.cache_hits", float64(skHits), "count")
	r.set("sketch.hit_ratio", ratio(float64(skHits), float64(skHits+skBuilds)), "ratio")
	r.set("sketch.build_ms", quantile(firstSketch(s, ps.outs), 0.5)*1e3, "ms")

	rpcs := b.rpcs - a.rpcs
	rpcTime := time.Duration((b.rpcMs - a.rpcMs) * float64(time.Millisecond))
	workerBusy := b.handler - a.handler
	var hist struct{ p50, p99 float64 }
	if e.pool != nil {
		h := e.pool.RPCLatency()
		hist.p50, hist.p99 = h.P50Ms, h.P99Ms
	}
	r.set("shard.rpcs", rpcs, "count")
	r.set("shard.rpc_p50_ms", hist.p50, "ms")
	r.set("shard.rpc_p99_ms", hist.p99, "ms")
	r.set("shard.worker_busy_s", workerBusy.Seconds(), "s")
	r.set("shard.wire_s", (rpcTime - workerBusy).Seconds(), "s")
	r.set("shard.bytes_tx", float64(b.pool.BytesTx-a.pool.BytesTx), "bytes")
	r.set("shard.bytes_rx", float64(b.pool.BytesRx-a.pool.BytesRx), "bytes")
	r.set("shard.redispatches", float64(b.pool.Redispatches-a.pool.Redispatches), "count")
	r.set("shard.speculative_hits", float64(b.pool.SpeculativeHits-a.pool.SpeculativeHits), "count")
	r.set("shard.local_fallbacks", float64(b.pool.LocalFallbacks-a.pool.LocalFallbacks), "count")
	var ws uint64
	for i := range b.workers {
		ws += b.workers[i].SamplesSimulated - a.workers[i].SamplesSimulated
	}
	r.set("shard.worker_samples", float64(ws), "count")

	// client time the loop spent outside any request
	r.set("trace.unattributed_s", (time.Duration(ps.clients)*ps.elapsed - wall).Seconds(), "s")
}

// firstSketch returns the latencies of the requests that introduced a
// sketch seed, the ones that built an index.
func firstSketch(s *stream, outs []outcome) []float64 {
	seen := map[uint64]bool{}
	var lats []float64
	for _, o := range outs {
		if r := s.at(int(o.idx)); r.kind.sketch() && !seen[r.seed] {
			seen[r.seed] = true
			lats = append(lats, o.lat.Seconds())
		}
	}
	slices.Sort(lats)
	return lats
}

// latencies returns the sorted request latencies in seconds; a failed
// request counts as infinitely slow.
func latencies(outs []outcome) []float64 {
	var l []float64
	for _, o := range outs {
		if o.bad {
			l = append(l, math.Inf(1))
		} else {
			l = append(l, o.lat.Seconds())
		}
	}
	slices.Sort(l)
	return l
}

// quantile is the nearest-rank quantile of sorted values (0 if none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSS reads the process's peak resident set (VmHWM) in MiB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
