package scanstat

import (
	"fmt"
	"math"
	"sync"
)

// Q2 returns the exact probability that no window of w consecutive trials
// among 2w Bernoulli(p) trials contains k or more successes:
//
//	Q2 = F(k-1)^2 - b(k) * sum_{r=0}^{k-2} F(r)
//
// where b and F are the Binomial(w, p) pmf and cdf. The identity follows
// from a reflection argument on the window-count walk: every length-w window
// inside 2w trials crosses the half boundary, so the maximum window count is
// N1 + max(0, max_y (V_y - U_y)) for the two half prefix-count processes,
// whose maximum obeys an exact reflection identity because the paired step
// distribution is symmetric.
func Q2(k, w int, p float64) float64 {
	if err := checkArgs(k, w, p); err != nil {
		panic(err)
	}
	if k > w {
		return 1 // a w-window cannot hold more than w successes
	}
	b := NewBinom(w, p)
	g := 0.0
	for r := 0; r <= k-2; r++ {
		g += b.CDF(r)
	}
	q := b.CDF(k-1)*b.CDF(k-1) - b.PMF(k)*g
	return clampProb(q)
}

// Q3 returns the exact probability that no window of w consecutive trials
// among 3w Bernoulli(p) trials contains k or more successes. It runs an
// O(w k^4) dynamic program over the three w-blocks.
//
// Derivation: split trials into blocks B1 B2 B3 of w each. Window counts are
// C_{y+1} = R1_y + V_y (windows crossing the B1/B2 boundary) and
// C_{w+1+y} = R2_y + T_y (crossing B2/B3), for y = 0..w, where R1_y and R2_y
// count block successes not yet passed by the window start, and V_y, T_y are
// prefix counts of B2 and B3. R1 and R2 are Markov when conditioned on their
// remaining counts (exchangeability of iid trials), and T has iid Bernoulli
// increments, so the joint survival probability is a small DP over the state
// (R1_y, V_y, R2_y, T_y) restricted to R1+V <= k-1 and R2+T <= k-1.
//
// The state is a dense matrix: rows are the packed pairs (r1, v), columns
// the packed pairs (r2, t). One step y -> y+1 moves three independent
// coordinates, and the DP applies them as three sweeps, each a run of
// contiguous multiply-adds between the two state buffers (m = w-y trials
// remain undecided in B1 and B2):
//
//   - A, over rows: r1 -> r1-1 with probability r1/m (the B1 trial leaving
//     the window was a success);
//   - B, rows into the next row: (v, r2) -> (v+1, r2-1) with probability
//     r2/m (the B2 trial leaving was a success and joins the B1/B2 window
//     count), killing the path when r1+v+1 > k-1;
//   - C, within each column block: t -> t+1 with probability p (the
//     arriving B3 trial was a success), killing the path at the block end,
//     where r2+t+1 > k-1.
//
// Every coordinate moves in exactly one sweep and each kill test sees the
// coordinates the earlier sweeps already moved, so the kills are exactly
// "a window reached k" on the step's final state.
func Q3(k, w int, p float64) float64 {
	if err := checkArgs(k, w, p); err != nil {
		panic(err)
	}
	if k > w {
		return 1
	}
	prior := NewBinom(w, p)

	// Pairs (a, b) with a+b <= k-1 are packed in order of a, then b: pair
	// (a, b) sits at off[a]+b, and block a holds the k-a pairs up to off[a+1].
	off := make([]int, k+1)
	for a := 0; a < k; a++ {
		off[a+1] = off[a] + k - a
	}
	np := off[k]
	cur := make([]float64, np*np)
	next := make([]float64, np*np)
	row := func(buf []float64, a, b int) []float64 {
		i := (off[a] + b) * np
		return buf[i : i+np]
	}

	// y = 0: v = t = 0, r1 = N1 <= k-1, r2 = N2 <= k-1.
	for r1 := 0; r1 < k; r1++ {
		dst := row(cur, r1, 0)
		for r2 := 0; r2 < k; r2++ {
			dst[off[r2]] = prior.PMF(r1) * prior.PMF(r2)
		}
	}

	for y := 0; y < w; y++ {
		m := float64(w - y)
		// A: cur -> next.
		for r1 := 0; r1 < k; r1++ {
			stay, move := 1-float64(r1)/m, float64(r1+1)/m
			for v := 0; r1+v < k; v++ {
				if r1+1+v < k {
					axpby(row(next, r1, v), stay, row(cur, r1, v), move, row(cur, r1+1, v))
				} else {
					scal(row(next, r1, v), stay, row(cur, r1, v))
				}
			}
		}
		// B: next -> cur.
		for r1 := 0; r1 < k; r1++ {
			for v := 0; r1+v < k; v++ {
				dst, src := row(cur, r1, v), row(next, r1, v)
				var from []float64 // row (r1, v-1), whose moves land here
				if v > 0 {
					from = row(next, r1, v-1)
				}
				for r2 := 0; r2 < k; r2++ {
					stay := 1 - float64(r2)/m
					lo, hi := off[r2], off[r2+1]
					if from == nil || r2 == k-1 {
						scal(dst[lo:hi], stay, src[lo:hi])
						continue
					}
					// Column (r2+1, t) lands on (r2, t) for t < k-1-r2; the
					// block's last t has no source in block r2+1.
					axpby(dst[lo:hi-1], stay, src[lo:hi-1], float64(r2+1)/m, from[off[r2+1]:])
					dst[hi-1] = stay * src[hi-1]
				}
			}
		}
		// C: cur -> next.
		q := 1 - p
		for i := 0; i < np; i++ {
			dst, src := next[i*np:(i+1)*np], cur[i*np:(i+1)*np]
			for r2 := 0; r2 < k; r2++ {
				lo, hi := off[r2], off[r2+1]
				dst[lo] = q * src[lo]
				axpby(dst[lo+1:hi], q, src[lo+1:hi], p, src[lo:hi-1])
			}
		}
		cur, next = next, cur
	}

	total := 0.0
	for _, v := range cur {
		total += v
	}
	return clampProb(total)
}

// axpby sets d[i] = a*x[i] + b*y[i] over d; x and y must be at least as
// long as d.
func axpby(d []float64, a float64, x []float64, b float64, y []float64) {
	x, y = x[:len(d)], y[:len(d)]
	for i := range d {
		d[i] = a*x[i] + b*y[i]
	}
}

// scal sets d[i] = a*x[i] over d.
func scal(d []float64, a float64, x []float64) {
	x = x[:len(d)]
	for i := range d {
		d[i] = a * x[i]
	}
}

// Tail returns P(S_w(N) >= k | p, w, L) with N = L*w, the probability that
// some window of w consecutive trials among N contains at least k successes.
// L may be fractional and must be >= 1.
//
// For L <= 2 it interpolates the exact single- and double-window survival
// probabilities; for L > 2 it uses the Naus product-type extrapolation
// 1 - Q2 (Q3/Q2)^(L-2) with the exact Q2 and Q3 above.
func Tail(k, w int, p, L float64) float64 {
	if err := checkArgs(k, w, p); err != nil {
		panic(err)
	}
	if L < 1 {
		panic(fmt.Sprintf("scanstat: L = %v < 1", L))
	}
	if k > w {
		return 0
	}
	if k <= 0 {
		return 1
	}
	q1 := NewBinom(w, p).CDF(k - 1) // P(S_w(w) < k)
	if L <= 2 {
		q2 := Q2(k, w, p)
		return clampProb(1 - extrapolate(q1, q2, L-1))
	}
	q2 := Q2(k, w, p)
	q3 := q3For(k, w, p, q1, q2)
	return clampProb(1 - extrapolate(q2, q3, L-2))
}

// q3ExactMaxK bounds the exact dynamic program: its state count grows as
// k^4, so beyond this point Q3 is replaced by the classical product-type
// estimate Q3 ~ Q2^2/Q1 (the same spacings-ratio argument the L>3
// extrapolation rests on). Queries operate at small critical values — the
// fallback only engages while an adaptive background estimate passes through
// a high-probability regime, where precision is irrelevant because nothing
// is significant anyway.
const q3ExactMaxK = 25

func q3For(k, w int, p, q1, q2 float64) float64 {
	if k <= q3ExactMaxK {
		return Q3(k, w, p)
	}
	if q1 <= 0 {
		return 0
	}
	return clampProb(q2 * q2 / q1)
}

// extrapolate computes qa * (qb/qa)^t in log space, treating a zero survival
// probability as zero (certain detection).
func extrapolate(qa, qb float64, t float64) float64 {
	if qa <= 0 || qb <= 0 {
		return 0
	}
	return math.Exp(math.Log(qa) + t*(math.Log(qb)-math.Log(qa)))
}

// critCache memoises CriticalValue process-wide: the function is pure and
// the adaptive engine queries the same (w, p-bucket, L, alpha) points over
// and over across runs.
var critCache sync.Map

type critKey struct {
	w        int
	p, l, al float64
}

// CriticalValue returns the smallest k such that
// P(S_w(N) >= k | p, w, L) <= alpha — the paper's k_crit (Equation 5).
//
// The tail is non-increasing in k, so the answer is found by search, run
// from the bottom so that the exact Q3 program — whose cost grows as k^4 —
// is only evaluated near the answer. The search first probes k =
// q3ExactMaxK+1, which is cheap because Q3 there is the Q2²/Q1 estimate: a
// larger answer is bisected from there, where every probe is cheap. A
// smaller one is bracketed by galloping up from k = 1 (1, 2, 4, 8, ...)
// and bisected within the last bracket, so the largest exact Q3 it runs is
// at most about twice the answer.
//
// If even k = w is not significant (the background probability is too high
// for any in-window count to be surprising) it returns w+1, a sentinel the
// indicator logic treats as "never positive".
func CriticalValue(w int, p, L, alpha float64) int {
	if w <= 0 {
		panic("scanstat: window must be positive")
	}
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("scanstat: alpha = %v out of (0,1)", alpha))
	}
	if p <= 0 {
		return 1 // any success at all is significant against p = 0
	}
	if p >= 1 {
		return w + 1
	}
	key := critKey{w: w, p: p, l: L, al: alpha}
	if k, ok := critCache.Load(key); ok {
		return k.(int)
	}
	k := criticalValueSearch(w, p, L, alpha)
	critCache.Store(key, k)
	return k
}

func criticalValueSearch(w int, p, L, alpha float64) int {
	significant := func(k int) bool { return Tail(k, w, p, L) <= alpha }
	// The answer lies in [lo, hi]: the virtual k = w+1 has tail 0 <= alpha,
	// and every k below lo is known not to be significant.
	lo, hi := 1, w+1
	if probe := q3ExactMaxK + 1; probe < hi {
		if significant(probe) {
			hi = probe
		} else {
			lo = probe + 1
		}
	}
	if lo == 1 {
		for k := 1; k < hi; k *= 2 {
			if significant(k) {
				hi = k
				break
			}
			lo = k + 1
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if significant(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// CriticalValues is a memoizing wrapper around CriticalValue for callers that
// recompute k_crit as an estimated background probability drifts (SVAQD). The
// probability is quantized on a logarithmic grid before lookup, trading an at
// most quantum-sized relative perturbation of p for a high hit rate.
//
// Quantization rounds log10(p) up, never down: the bucket probability is
// always >= p, and the critical value is non-decreasing in p, so a cached
// value is never less conservative than a direct CriticalValue call — the
// property that makes one grid safe to share across concurrent runs whose
// estimates straddle bucket boundaries.
//
// A CriticalValues is safe for concurrent use; Shared returns a process-wide
// instance per (w, L, alpha, grid) so every run of a fleet, and every
// concurrent server query at the same configuration, reuses one memoized
// Naus search instead of owning a private cache.
type CriticalValues struct {
	w     int
	l     float64
	alpha float64
	grid  float64 // log10 quantum, e.g. 0.01 for 100 buckets per decade

	mu    sync.RWMutex
	cache map[int]int
}

// NewCriticalValues builds a private cache for window w, horizon ratio L and
// significance level alpha, quantizing log10(p) to multiples of grid. Most
// callers want Shared instead.
func NewCriticalValues(w int, L, alpha, grid float64) *CriticalValues {
	if grid <= 0 {
		panic("scanstat: grid must be positive")
	}
	return &CriticalValues{w: w, l: L, alpha: alpha, grid: grid, cache: make(map[int]int)}
}

// sharedGrids holds the process-wide CriticalValues instances, keyed by the
// full parameterization so differently configured engines never alias.
var sharedGrids sync.Map

type sharedKey struct {
	w              int
	l, alpha, grid float64
}

// Shared returns the process-wide CriticalValues for (w, L, alpha, grid),
// creating it on first use. All callers with equal parameters receive the
// same instance and therefore share its memoized grid.
func Shared(w int, L, alpha, grid float64) *CriticalValues {
	key := sharedKey{w: w, l: L, alpha: alpha, grid: grid}
	if c, ok := sharedGrids.Load(key); ok {
		return c.(*CriticalValues)
	}
	c, _ := sharedGrids.LoadOrStore(key, NewCriticalValues(w, L, alpha, grid))
	return c.(*CriticalValues)
}

// Sentinel buckets for the degenerate probabilities the grid does not
// cover: p <= 0 always yields k = 1, p >= 1 the never-positive w+1.
const (
	bucketZero = math.MinInt // p <= 0
	bucketOne  = math.MaxInt // p >= 1
)

// BucketOf returns the grid bucket p quantizes to. The critical value is a
// pure function of the bucket, so a caller that tracks the bucket of its
// last lookup can skip the shared cache entirely while its estimate stays
// inside one bucket — the per-clip refresh of a drifting background
// estimate touches the shared grid once per bucket crossing, not once per
// clip.
func (c *CriticalValues) BucketOf(p float64) int {
	if p <= 0 {
		return bucketZero
	}
	if p >= 1 {
		return bucketOne
	}
	// log10(p) < 0 here, so the ceil bucket is <= 0 and its probability
	// 10^(bucket*grid) is in [p, 1] (up to a 1e-9 log10 slop that keeps
	// floating-point representations of on-grid probabilities, e.g.
	// log10(1e-4)/grid = -399.99999999999994, in their own bucket).
	return int(math.Ceil(math.Log10(p)/c.grid - 1e-9))
}

// AtBucket returns the critical value for a bucket previously obtained from
// BucketOf.
func (c *CriticalValues) AtBucket(bucket int) int {
	switch bucket {
	case bucketZero:
		return 1
	case bucketOne:
		return c.w + 1
	}
	c.mu.RLock()
	k, ok := c.cache[bucket]
	c.mu.RUnlock()
	if ok {
		return k
	}
	// Compute outside the lock so a search never blocks readers of other
	// buckets. Runs that miss the same bucket concurrently each run the
	// search (CriticalValue's memo only serves the ones that start after it
	// has stored the value); they store the same k, so a duplicate costs
	// time, never a different answer.
	k = CriticalValue(c.w, math.Pow(10, float64(bucket)*c.grid), c.l, c.alpha)
	c.mu.Lock()
	c.cache[bucket] = k
	c.mu.Unlock()
	return k
}

// At returns the (possibly cached) critical value for background
// probability p. It is safe to call from concurrent runs sharing the cache.
func (c *CriticalValues) At(p float64) int {
	return c.AtBucket(c.BucketOf(p))
}

// AtBatch fills ks[i] with the critical value for ps[i], acquiring the
// shared lock once for the whole batch instead of once per probability.
// Misses are computed outside the lock and inserted in a single write
// round. ks must have len(ps) space; the filled prefix is returned.
func (c *CriticalValues) AtBatch(ps []float64, ks []int) []int {
	ks = ks[:len(ps)]
	miss := false
	c.mu.RLock()
	for i, p := range ps {
		switch b := c.BucketOf(p); b {
		case bucketZero:
			ks[i] = 1
		case bucketOne:
			ks[i] = c.w + 1
		default:
			if k, ok := c.cache[b]; ok {
				ks[i] = k
			} else {
				ks[i] = -1
				miss = true
			}
		}
	}
	c.mu.RUnlock()
	if !miss {
		return ks
	}
	for i, p := range ps {
		if ks[i] < 0 {
			ks[i] = CriticalValue(c.w, math.Pow(10, float64(c.BucketOf(p))*c.grid), c.l, c.alpha)
		}
	}
	c.mu.Lock()
	for i, p := range ps {
		c.cache[c.BucketOf(p)] = ks[i]
	}
	c.mu.Unlock()
	return ks
}

// Size reports how many buckets the cache currently holds (diagnostics).
func (c *CriticalValues) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.cache)
}

func checkArgs(k, w int, p float64) error {
	if w <= 0 {
		return fmt.Errorf("scanstat: window w = %d must be positive", w)
	}
	if k < 0 {
		return fmt.Errorf("scanstat: k = %d must be non-negative", k)
	}
	if p < 0 || p > 1 {
		return fmt.Errorf("scanstat: p = %v out of [0,1]", p)
	}
	return nil
}

func clampProb(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
