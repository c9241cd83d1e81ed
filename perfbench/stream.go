package main

import (
	"imdpp/internal/core"
	"imdpp/internal/diffusion"
)

// Problem and request sizes. The problem is the Amazon-shaped preset
// at the quickstart size; the workload seed only shapes the requests.
const (
	budget   = 500
	horizon  = 10
	solveMC  = 24 // nominee-selection samples per solve
	sigmaMC  = 24 // samples per MC sigma query
	primeMC  = 4  // samples of the pre-answered solves query-mix re-submits
	primeCap = 32 // and their nominee candidate cap

	sketchEps   = 0.05
	sketchDelta = 0.05

	groupPool = 256 // seed groups query-mix draws from
	hotPairs  = 64  // (group, MC seed) pairs that repeat
	hotSketch = 2   // sketch seeds that repeat
	primed    = 2   // solves answered before timing, then re-submitted
)

// kind is the operation a request performs.
type kind int

const (
	kindSolve       kind = iota // Dysim solve, distinct solver seed
	kindMCHot                   // sigma over a hot (group, seed) pair
	kindMCFresh                 // sigma with a never-seen MC seed
	kindSketchHot               // ε-sigma under a hot sketch seed
	kindSketchFresh             // ε-sigma under a never-seen sketch seed
	kindResolve                 // re-submit of an already-answered solve
)

var kindNames = [...]string{"solve", "mc_hot", "mc_fresh", "sketch_hot", "sketch_fresh", "resolve"}

func (k kind) String() string { return kindNames[k] }

func (k kind) sketch() bool { return k == kindSketchHot || k == kindSketchFresh }

// lane maps a sigma query to its answer class: requests in one lane
// with the same group and seed must get the same answer.
func (k kind) lane() kind {
	switch k {
	case kindMCFresh:
		return kindMCHot
	case kindSketchFresh:
		return kindSketchHot
	}
	return k
}

// request is one generated operation. group indexes the query-mix
// group pool; seed is the solver, MC or sketch seed.
type request struct {
	idx   int
	kind  kind
	group int
	seed  uint64
}

// stream generates a workload's requests: request i is a pure function
// of (workload seed, i), so any number of clients pulling indices from
// a shared counter sees the same stream and every answer can be
// checked and digested by index.
type stream struct {
	mix    bool // query-mix; otherwise every request is a solve
	base   uint64
	groups [][]diffusion.Seed
	hot    []request // the hot (group, MC seed) pairs
}

func newStream(w workload, seed uint64, p *diffusion.Problem) *stream {
	s := &stream{mix: w.mix, base: mix64(seed ^ 0x9e3779b97f4a7c15)}
	if !w.mix {
		return s
	}
	r := newRand(mix64(seed + 1))
	s.groups = make([][]diffusion.Seed, groupPool)
	for g := range s.groups {
		s.groups[g] = seedGroup(p, r)
	}
	s.hot = make([]request, hotPairs)
	for h := range s.hot {
		s.hot[h] = request{kind: kindMCHot, group: r.intn(groupPool), seed: r.next() >> 1}
	}
	return s
}

// seedGroup draws a budget-feasible group of 10–40 distinct
// (user, item) seeds: seeds that would overrun the budget are skipped.
func seedGroup(p *diffusion.Problem, r *rand) []diffusion.Seed {
	want := 10 + r.intn(31)
	seen := make(map[[2]int]bool)
	var g []diffusion.Seed
	cost := 0.0
	for tries := 0; len(g) < want && tries < 50*want; tries++ {
		sd := diffusion.Seed{User: r.intn(p.NumUsers()), Item: r.intn(p.NumItems()), T: 1 + r.intn(p.T)}
		c := p.CostOf(sd.User, sd.Item)
		if seen[[2]int{sd.User, sd.Item}] || cost+c > p.Budget {
			continue
		}
		seen[[2]int{sd.User, sd.Item}] = true
		cost += c
		g = append(g, sd)
	}
	return g
}

// at returns request i.
func (s *stream) at(i int) request {
	// fresh seeds are distinct for distinct i (an odd multiplier is a
	// bijection mod 2⁶⁴) and carry the top bit, which hot seeds never do
	fresh := (s.base + uint64(i)*0xbf58476d1ce4e5b9) | 1<<63
	if !s.mix {
		return request{idx: i, kind: kindSolve, seed: fresh}
	}
	r := newRand(mix64(s.base + uint64(i)))
	switch u := r.intn(100); {
	case u < 58:
		h := s.hot[r.intn(hotPairs)]
		h.idx = i
		return h
	case u < 78:
		return request{idx: i, kind: kindMCFresh, group: r.intn(groupPool), seed: fresh}
	case u < 93:
		return request{idx: i, kind: kindSketchHot, group: r.intn(groupPool), seed: uint64(1 + r.intn(hotSketch))}
	case u < 98:
		return request{idx: i, kind: kindSketchFresh, group: r.intn(groupPool), seed: fresh}
	default:
		return request{idx: i, kind: kindResolve, seed: uint64(r.intn(primed))}
	}
}

// solveOptions are the options of a solve request.
func solveOptions(seed uint64) core.Options { return core.Options{MC: solveMC, Seed: seed} }

// primeOptions are the options of the solves query-mix re-submits:
// few samples and a small candidate cap keep priming near 0.1 s.
func primeOptions(i uint64) core.Options {
	return core.Options{MC: primeMC, MCSI: primeMC, CandidateCap: primeCap, Seed: 1000 + i}
}

// rand is a splitmix64 generator: small, seedable and stable across Go
// releases, so a workload seed means the same requests everywhere.
type rand struct{ s uint64 }

func newRand(seed uint64) *rand { return &rand{s: seed} }

func (r *rand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rand) intn(n int) int { return int(r.next() % uint64(n)) }

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
