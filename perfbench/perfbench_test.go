package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"imdpp/internal/core"
	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
	"imdpp/internal/gridcache"
	"imdpp/internal/service"
)

// quick runs a workload briefly at Amazon scale 0.05 and returns its
// result and the lines printed before it.
func quick(t *testing.T, name string, seed uint64, trace bool) (result, string) {
	t.Helper()
	w := workloads[name]
	w.scale = 0.05
	w.prefix = min(w.prefix, 200)
	var out bytes.Buffer
	res, err := run(options{workload: w, seed: seed, seconds: 0.3, trace: trace}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	return res, out.String()
}

var metricLine = regexp.MustCompile(`(?m)^metric (\S+) (\S+) (\S+)$`)

// printed maps each printed metric name to its unit.
func printed(out string) map[string]string {
	m := map[string]string{}
	for _, f := range metricLine.FindAllStringSubmatch(out, -1) {
		m[f[1]] = f[3]
	}
	return m
}

func digestOf(t *testing.T, out string) string {
	t.Helper()
	f := regexp.MustCompile(`(?m)^digest (\S+) `).FindStringSubmatch(out)
	if f == nil {
		t.Fatalf("no digest line in\n%s", out)
	}
	return f[1]
}

func TestWorkloads(t *testing.T) {
	for _, name := range []string{"solve", "solve-sharded", "query-mix"} {
		t.Run(name, func(t *testing.T) {
			res, out := quick(t, name, 7, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
			}
			units := printed(out)
			want := append([]string{"failed_share", "requests"}, endToEndNames...)
			if name == "query-mix" {
				want = append(want, "queries_per_s", "query_p50_ms")
			} else {
				want = append(want, "solve_s")
			}
			for _, n := range want {
				if units[n] == "" {
					t.Errorf("metric %s not printed with a unit", n)
				}
			}
			if len(res.Metrics) != len(endToEndNames) {
				t.Errorf("final line has %d metrics, want %d", len(res.Metrics), len(endToEndNames))
			}
			for n, m := range res.Metrics {
				if m.Unit != units[n] || !(m.Value > 0) {
					t.Errorf("metric %s = %v %s on the final line (printed unit %q)", n, m.Value, m.Unit, units[n])
				}
			}

			again, out2 := quick(t, name, 7, false)
			if d1, d2 := digestOf(t, out), digestOf(t, out2); d1 != d2 || !again.Correct {
				t.Errorf("same seed gave digests %s and %s", d1, d2)
			}
			if _, out3 := quick(t, name, 8, false); digestOf(t, out3) == digestOf(t, out) {
				t.Errorf("seeds 7 and 8 gave the same digest")
			}

			// the traced run checks its digest and grid work against an
			// untraced reference itself; it must also match this run
			tr, outT := quick(t, name, 7, true)
			if !tr.Correct || tr.Failed != 0 {
				t.Fatalf("traced run: attempted=%d failed=%d\n%s", tr.Attempted, tr.Failed, outT)
			}
			if digestOf(t, outT) != digestOf(t, out) {
				t.Errorf("traced digest %s, untraced %s", digestOf(t, outT), digestOf(t, out))
			}
			units = printed(outT)
			for _, n := range perLayerNames {
				if units[n] == "" || tr.Metrics[n].Unit != units[n] {
					t.Errorf("per-layer metric %s not printed, or not on the final line, with its unit", n)
				}
			}
			if name == "solve-sharded" && tr.Metrics["shard.local_fallbacks"].Value != 0 {
				t.Errorf("shard.local_fallbacks = %v", tr.Metrics["shard.local_fallbacks"].Value)
			}
		})
	}
}

func TestStreamDependsOnSeed(t *testing.T) {
	ds, err := dataset.Amazon(0.05)
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Clone(budget, horizon)
	for _, name := range []string{"solve", "query-mix"} {
		w := workloads[name]
		a, b, a2 := newStream(w, 1, p), newStream(w, 2, p), newStream(w, 1, p)
		same, differ := true, false
		for i := 0; i < 100; i++ {
			same = same && a.at(i) == a2.at(i)
			differ = differ || a.at(i) != b.at(i)
		}
		if !same || !differ {
			t.Errorf("%s: seed 1 twice equal=%v, seeds 1 and 2 differ=%v", name, same, differ)
		}
	}
}

// TestTimedEstimatorKeepsGridCache pins the decorator's forwarding of
// AttachGrid and GridStats: without them core.AttachGridCache would
// detach the cache and the traced run would measure another program.
func TestTimedEstimatorKeepsGridCache(t *testing.T) {
	ds, err := dataset.Amazon(0.05)
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Clone(budget, horizon)
	cache := gridcache.New(gridcache.Config{
		MaxBytes: 1 << 20,
		KeyFn:    func(p *diffusion.Problem) string { return service.HashProblem(p).String() },
	})
	timer := &engineTimer{}
	est := timer.wrap(core.LocalEstimator)(p, 8, 3, 1)
	core.AttachGridCache(est, p, cache)
	g := seedGroup(p, newRand(5))
	first, second := est.Run(g, nil, false), est.Run(g, nil, false)
	if first.Sigma != second.Sigma {
		t.Fatalf("σ %v then %v", first.Sigma, second.Sigma)
	}
	hits, _ := est.(interface{ GridStats() (uint64, uint64) }).GridStats()
	if hits == 0 || cache.Stats().Hits == 0 {
		t.Fatalf("grid cache not used through the decorator: estimator hits %d, cache %+v", hits, cache.Stats())
	}
	if timer.calls.Load() != 2 || timer.busyTime() <= 0 {
		t.Fatalf("decorator saw %d calls, %v busy", timer.calls.Load(), timer.busyTime())
	}
}

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{"--workload", "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := parseFlags([]string{"--workload", "solve", "--trace", "2"}); err == nil {
		t.Error("--trace 2 accepted")
	}
	o, err := parseFlags(strings.Fields("--workload query-mix --seed 9 --seconds 12 --trace 1"))
	if err != nil || o.seed != 9 || o.seconds != 12 || !o.trace || o.workload.name != "query-mix" {
		t.Errorf("parsed %+v, %v", o, err)
	}
}
