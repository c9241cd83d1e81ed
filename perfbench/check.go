package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/shard"
)

// How many distinct fresh keys are checked against a direct engine
// evaluation (every hot key always is). Checks run after the timed
// pass, so this bounds only the check time.
const (
	freshMCChecks     = 16
	freshSketchChecks = 8
	probeGroups       = 8
)

// checker runs the output checks and counts operations and failures.
type checker struct {
	p         *diffusion.Problem
	attempted int
	failed    int
	notes     []string
}

// check counts one extra operation that passes when ok.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// outcomes checks every request of a pass; each request is one
// attempted operation, failed when it errored or any check on its
// answer fails.
func (c *checker) outcomes(s *stream, ps *pass, primes []*core.Solution) {
	type key struct {
		lane  kind
		group int
		seed  uint64
	}
	first := map[key]*outcome{}
	var order []key // first-seen keys, in request order
	for i := range ps.outs {
		o := &ps.outs[i]
		r := s.at(int(o.idx))
		switch {
		case ps.errs[o.idx] != nil:
			c.reject(s, o, ps.errs[o.idx].Error())
		case r.kind == kindSolve || r.kind == kindResolve:
			if msg := c.solution(o.sol); msg != "" {
				c.reject(s, o, msg)
			} else if r.kind == kindResolve && o.answer != solutionSum(primes[r.seed]) {
				c.reject(s, o, "re-submitted solve differs from its first answer")
			}
		default:
			k := key{r.kind.lane(), r.group, r.seed}
			if o.sketch != r.kind.sketch() || !finite(o.sigma) {
				c.reject(s, o, fmt.Sprintf("answered by the sketch backend: %v, σ %v", o.sketch, o.sigma))
			} else if f, ok := first[k]; !ok {
				first[k] = o
				order = append(order, k)
			} else if f.answer != o.answer {
				c.reject(s, o, fmt.Sprintf("answer differs from request %d's for the same key", f.idx))
			}
		}
	}

	// first-seen answers against a direct engine evaluation: every hot
	// key plus the first few fresh ones
	var wsum float64
	for _, w := range c.p.Importance {
		wsum += w
	}
	bound := sketchEps * float64(c.p.NumUsers()) * wsum
	budget := map[kind]int{kindMCHot: len(order), kindSketchHot: len(order), kindMCFresh: freshMCChecks, kindSketchFresh: freshSketchChecks}
	for _, k := range order {
		o := first[k]
		kd := s.at(int(o.idx)).kind
		if budget[kd] == 0 {
			continue
		}
		budget[kd]--
		eng := diffusion.NewEstimator(c.p, sigmaMC, k.seed)
		eng.Workers = nproc()
		direct := eng.Run(s.groups[k.group], nil, false)
		if k.lane == kindMCHot && estimateSum(direct) != o.answer {
			c.reject(s, o, fmt.Sprintf("MC answer σ %v differs from the engine's %v", o.sigma, direct.Sigma))
		}
		if d := math.Abs(o.sigma - direct.Sigma); k.lane == kindSketchHot && !(d <= bound) {
			c.reject(s, o, fmt.Sprintf("sketch σ %v is %v from MC σ %v, beyond ε·n·W = %v", o.sigma, d, direct.Sigma, bound))
		}
	}
	for _, o := range ps.outs {
		c.attempted++
		if o.bad {
			c.failed++
		}
	}
}

// reject marks a request failed and notes why.
func (c *checker) reject(s *stream, o *outcome, why string) {
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf("request %d (%s): %s", o.idx, s.at(int(o.idx)).kind, why))
	}
	o.bad = true
}

// solution reports what is wrong with a solve's answer, or "".
func (c *checker) solution(sol *core.Solution) string {
	switch {
	case sol == nil:
		return "no solution"
	case c.p.ValidateSeeds(sol.Seeds) != nil:
		return c.p.ValidateSeeds(sol.Seeds).Error()
	case c.p.SeedCost(sol.Seeds) > c.p.Budget+1e-9:
		return fmt.Sprintf("seed cost %v over budget %v", c.p.SeedCost(sol.Seeds), c.p.Budget)
	case !finite(sol.Sigma):
		return fmt.Sprintf("σ %v is not finite", sol.Sigma)
	}
	return ""
}

// probe runs a fixed batch through the sharded estimator and the local
// engine; the §3 contract makes them equal bit for bit.
func (c *checker) probe(pool *shard.Pool) {
	r := newRand(42)
	groups := make([][]diffusion.Seed, probeGroups)
	for i := range groups {
		groups[i] = seedGroup(c.p, r)
	}
	workers := nproc()
	remote := shard.NewEstimator(pool, c.p, solveMC, 7, workers).RunBatch(groups, nil)
	eng := diffusion.NewEstimator(c.p, solveMC, 7)
	eng.Workers = workers
	local := eng.RunBatch(groups, nil)
	same := len(remote) == len(local)
	for i := 0; same && i < len(local); i++ {
		same = estimateSum(remote[i]) == estimateSum(local[i])
	}
	c.check(same, "sharded probe batch differs from the local engine")
}

// digest hashes the first n requests and their answers.
func digest(s *stream, outs []outcome, n int) string {
	h := sha256.New()
	var b [8]byte
	for _, o := range outs[:min(n, len(outs))] {
		r := s.at(int(o.idx))
		for _, v := range []uint64{uint64(r.idx), uint64(r.kind), uint64(r.group), r.seed, o.answer} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// bitsSum folds float and integer bits into an FNV-1a style hash.
type bitsSum uint64

func newSum() bitsSum { return 14695981039346656037 }

func (h *bitsSum) add(v uint64) { *h = (*h ^ bitsSum(v)) * 1099511628211 }

func (h *bitsSum) addFloat(f float64) { h.add(math.Float64bits(f)) }

// solutionSum hashes every bit of a solve's answer: σ, cost and seeds.
func solutionSum(sol *core.Solution) uint64 {
	if sol == nil {
		return 0
	}
	h := newSum()
	h.addFloat(sol.Sigma)
	h.addFloat(sol.Cost)
	for _, s := range sol.Seeds {
		h.add(uint64(s.User))
		h.add(uint64(s.Item))
		h.add(uint64(s.T))
	}
	return uint64(h)
}

// estimateSum hashes every bit of an estimate.
func estimateSum(e diffusion.Estimate) uint64 {
	h := newSum()
	for _, f := range []float64{e.Sigma, e.MarketSigma, e.Pi, e.Adoptions} {
		h.addFloat(f)
	}
	for _, f := range e.PerItem {
		h.addFloat(f)
	}
	return uint64(h)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
