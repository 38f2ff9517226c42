package main

import (
	"math"
	"math/bits"
)

// The benchmark owns its key generators so that a later change to
// internal/workload or internal/bench cannot alter the offered load: the
// engine only ever sees keys produced here from the -seed flag.

// rng is SplitMix64: tiny, fast, and fully determined by its seed.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n) (multiply-shift; the bias is below
// n/2^64 and irrelevant at benchmark key counts).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// streamSeed derives the seed of one independent stream (worker, phase) from
// the run seed, so workers never share a sequence.
func streamSeed(seed uint64, stream int) uint64 {
	r := rng{s: seed ^ uint64(stream+1)*0xd6e8feb86659fd93}
	return r.next()
}

// keyGen draws keys in [0, n): uniform for theta = 0, otherwise the YCSB
// Zipfian (Gray et al.'s quick algorithm, P(rank i) ∝ 1/i^theta, rank 0 the
// hottest) that the paper's Figure 6 workloads use.
type keyGen struct {
	r     *rng
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 0.5^theta
}

func newKeyGen(seed uint64, n uint64, theta float64) *keyGen {
	g := &keyGen{r: newRNG(seed), n: n, theta: theta}
	if theta > 0 {
		g.zetan = zeta(n, theta)
		g.alpha = 1 / (1 - theta)
		g.half = math.Pow(0.5, theta)
		g.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/g.zetan)
	}
	return g
}

// zeta is the generalized harmonic number H(n, theta); O(n), once per
// generator, and counted in setup_s.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// fork returns a generator over the same distribution with its own stream,
// sparing a second O(n) zeta.
func (g *keyGen) fork(seed uint64) *keyGen {
	c := *g
	c.r = newRNG(seed)
	return &c
}

func (g *keyGen) next() uint64 {
	if g.theta == 0 {
		return g.r.intn(g.n)
	}
	u := g.r.float64()
	uz := u * g.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+g.half {
		return 1
	}
	k := uint64(float64(g.n) * math.Pow(g.eta*u-g.eta+1, g.alpha))
	if k >= g.n {
		k = g.n - 1
	}
	return k
}
