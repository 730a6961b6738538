// Package analysis provides the closed-form performance models of the
// paper's §V: the expected number of data-packet transmissions needed to
// deliver one page to N one-hop receivers whose packets are lost
// independently with probability p, under
//
//   - Seluge's SNACK-driven ARQ (Theorem 1 analogue): each of the k packets
//     is retransmitted until every receiver holds it, and
//   - ACK-based LR-Seluge (Theorem 2 analogue): the sender transmits the n
//     encoded packets in rounds until every receiver holds at least k'
//     distinct packets. The paper (Fig. 3) finds it an upper bound on real
//     (SNACK-driven, scheduled) LR-Seluge; in this simulator it bounds the
//     data packets only on parts of the loss axis (EXPERIMENTS.md, Fig. 3(a)).
package analysis

import (
	"fmt"
	"math"
)

// convergence controls for the infinite sums.
const (
	epsilon  = 1e-12
	maxTerms = 100000
)

// SelugeDataTx returns the expected number of data-packet transmissions for
// one page of k packets under Seluge/Deluge ARQ: the number of times packet
// j must be transmitted is T_j = max over receivers of a Geometric(1-p)
// variable, so
//
//	E[total] = k * sum_{t>=0} (1 - (1 - p^t)^N).
func SelugeDataTx(k, receivers int, p float64) (float64, error) {
	if err := checkArgs(k, k, k, receivers, p); err != nil {
		return 0, err
	}
	if p == 0 {
		return float64(k), nil
	}
	sum := 0.0
	pt := 1.0 // p^t
	for t := 0; t < maxTerms; t++ {
		term := 1 - math.Pow(1-pt, float64(receivers))
		sum += term
		if term < epsilon {
			break
		}
		pt *= p
	}
	return float64(k) * sum, nil
}

// ACKBasedLRDataTx returns the expected number of data-packet transmissions
// for one page under ACK-based LR-Seluge: the sender repeats rounds of all n
// encoded packets; receiver i is done after round r if it holds at least k'
// distinct packets, i.e. Binomial(n, 1-p^r) >= k'. Then
//
//	E[total] = n * E[R],  E[R] = sum_{r>=0} (1 - F(r)^N),
//	F(r) = P(Bin(n, 1-p^r) >= k').
//
// The jump the paper observes between p=0.3 and p=0.4 (Fig. 3) is the point
// where one round stops sufficing with high probability.
func ACKBasedLRDataTx(k, n, kprime, receivers int, p float64) (float64, error) {
	if err := checkArgs(k, n, kprime, receivers, p); err != nil {
		return 0, err
	}
	if p == 0 {
		return float64(n), nil
	}
	sum := 0.0
	pr := 1.0 // p^r
	for r := 0; r < maxTerms; r++ {
		f := binomTailGE(n, kprime, 1-pr)
		term := 1 - math.Pow(f, float64(receivers))
		sum += term
		if term < epsilon {
			break
		}
		pr *= p
	}
	return float64(n) * sum, nil
}

// LRLowerBoundDataTx returns the information-theoretic floor for LR-Seluge:
// no scheme can deliver a page with fewer transmissions than the maximum
// over receivers of the number needed for k' successes, i.e.
// E[max_i NegBinomial(k', 1-p)] >= k'/(1-p). We return the simple k'/(1-p)
// single-receiver expectation, useful as a sanity floor in benchmarks.
func LRLowerBoundDataTx(kprime int, p float64) (float64, error) {
	if kprime < 1 || p < 0 || p >= 1 {
		return 0, fmt.Errorf("analysis: invalid kprime=%d p=%f", kprime, p)
	}
	return float64(kprime) / (1 - p), nil
}

// binomTailGE returns P(Bin(n, q) >= k) computed by direct summation in log
// space for numerical stability.
func binomTailGE(n, k int, q float64) float64 {
	if k <= 0 {
		return 1
	}
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return 1
	}
	total := 0.0
	for i := k; i <= n; i++ {
		total += math.Exp(logChoose(n, i) + float64(i)*math.Log(q) + float64(n-i)*math.Log(1-q))
	}
	if total > 1 {
		total = 1
	}
	return total
}

func logChoose(n, k int) float64 {
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(k + 1))
	lgNK, _ := math.Lgamma(float64(n - k + 1))
	return lgN - lgK - lgNK
}

func checkArgs(k, n, kprime, receivers int, p float64) error {
	if k < 1 || n < k || kprime < k || kprime > n || receivers < 1 {
		return fmt.Errorf("analysis: invalid k=%d n=%d k'=%d N=%d", k, n, kprime, receivers)
	}
	if p < 0 || p >= 1 {
		return fmt.Errorf("analysis: loss probability %f outside [0,1)", p)
	}
	return nil
}
