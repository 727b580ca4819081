package main

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1), interpolating
// linearly between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when there is no base to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inputSeed derives the seed of one generated input from the workload seed,
// so that every input changes with --seed and no two inputs share a stream.
// The result is positive and never 0, which the program reads as "use the
// default seed".
func inputSeed(base int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", base, label)
	return int64(h.Sum64()>>33) + 1
}
