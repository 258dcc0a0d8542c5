// Package queueing provides closed-form queueing-theory results used to
// validate the simulator: if the discrete-event machinery is correct,
// a LibPreemptible system with preemption disabled must reproduce
// M/M/c (Erlang-C) and M/G/1 (Pollaczek–Khinchine) sojourn times, and a
// processor-sharing configuration must approach M/M/1-PS. The tests
// that make the comparison live with the engine they check, in
// internal/core/validation_test.go; they are the strongest correctness
// evidence the reproduction has: they tie the simulation to ground
// truth that does not depend on any calibration constant.
package queueing

import "math"

// ErlangC returns the probability that an arriving job waits in an
// M/M/c queue with offered load rho = lambda/(c*mu), 0 <= rho < 1.
func ErlangC(c int, rho float64) float64 {
	if c <= 0 {
		panic("queueing: c must be positive")
	}
	if rho < 0 || rho >= 1 {
		panic("queueing: need 0 <= rho < 1")
	}
	if rho == 0 {
		return 0
	}
	a := float64(c) * rho // offered traffic in Erlangs
	// Iteratively compute the Erlang-B blocking probability, then
	// convert to Erlang C. The recurrence is numerically stable.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b / (1 - rho*(1-b))
}

// MMcMeanSojourn returns the mean sojourn time (wait + service) of an
// M/M/c queue with mean service time s and load rho.
func MMcMeanSojourn(c int, rho float64, s float64) float64 {
	pw := ErlangC(c, rho)
	return s + pw*s/(float64(c)*(1-rho))
}

// MM1MeanSojourn is the M/M/1 special case: s/(1-rho).
func MM1MeanSojourn(rho, s float64) float64 {
	if rho >= 1 {
		panic("queueing: unstable")
	}
	return s / (1 - rho)
}

// MG1MeanWait returns the Pollaczek–Khinchine mean waiting time of an
// M/G/1 FCFS queue: W = λ·E[S²] / (2(1−ρ)), with arrival rate lambda,
// service moments es and es2.
func MG1MeanWait(lambda, es, es2 float64) float64 {
	rho := lambda * es
	if rho >= 1 {
		panic("queueing: unstable")
	}
	return lambda * es2 / (2 * (1 - rho))
}

// MG1MeanSojourn is MG1MeanWait plus the mean service time.
func MG1MeanSojourn(lambda, es, es2 float64) float64 {
	return MG1MeanWait(lambda, es, es2) + es
}

// MM1PSMeanSojourn returns the mean sojourn of an M/M/1 processor-
// sharing queue — identical to FCFS in the mean (s/(1−ρ)), but PS is
// insensitive to the service distribution: the same formula holds for
// M/G/1-PS with mean s. A fine-quantum round-robin approaches it.
func MM1PSMeanSojourn(rho, s float64) float64 { return MM1MeanSojourn(rho, s) }

// BimodalMoments returns E[S] and E[S²] of a two-point service
// distribution: value short with probability p, else long.
func BimodalMoments(p, short, long float64) (es, es2 float64) {
	es = p*short + (1-p)*long
	es2 = p*short*short + (1-p)*long*long
	return es, es2
}

// ExpMoments returns E[S] and E[S²] = 2·mean² of an exponential.
func ExpMoments(mean float64) (es, es2 float64) {
	return mean, 2 * mean * mean
}

// MM1SojournQuantile returns the q-quantile of the M/M/1 FCFS sojourn
// time, which is exponential with mean s/(1−ρ).
func MM1SojournQuantile(rho, s, q float64) float64 {
	if q <= 0 || q >= 1 {
		panic("queueing: quantile in (0,1)")
	}
	return -math.Log(1-q) * MM1MeanSojourn(rho, s)
}
