package rng

// Alias is a Walker alias table [Walker 1977] for O(1) sampling from a fixed
// discrete distribution over {0, …, n−1}. The paper's Appendix A relies on
// it to draw one in-neighbor per step of the LT reverse random walk, giving
// O(1) time per step after O(n) table construction.
//
// The zero value is an empty table; build one with NewAlias.
type Alias struct {
	prob  []float64 // acceptance probability of the primary outcome per column
	alias []int32   // fallback outcome per column
}

// NewAlias builds an alias table for the distribution proportional to
// weights. Negative weights panic; an all-zero or empty weight vector yields
// a table whose Sample panics (there is nothing to draw).
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	if n == 0 {
		return a
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic("rng: NewAlias with negative weight")
		}
		_ = i
		total += w
	}
	if total == 0 {
		a.prob = nil
		a.alias = nil
		return a
	}

	// Scale so that the average column weight is exactly 1, then split the
	// columns into those below the average ("small") and at-or-above
	// ("large"), repeatedly topping up a small column from a large one.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Numerical leftovers: every remaining column has probability ~1.
	for _, l := range large {
		a.prob[l] = 1
		a.alias[l] = l
	}
	for _, s := range small {
		a.prob[s] = 1
		a.alias[s] = s
	}
	return a
}

// N returns the number of outcomes.
func (a *Alias) N() int { return len(a.prob) }

// Empty reports whether the table has no mass to sample from (zero weights
// or zero outcomes).
func (a *Alias) Empty() bool { return len(a.prob) == 0 }

// Sample draws one outcome in [0, N()) using src. It panics on an empty
// table.
func (a *Alias) Sample(src *Source) int32 {
	n := len(a.prob)
	if n == 0 {
		panic("rng: Sample from empty alias table")
	}
	// One uniform draw supplies both the column index and the coin flip.
	u := src.Float64() * float64(n)
	col := int32(u)
	if int(col) >= n { // guard against u == n from rounding
		col = int32(n - 1)
	}
	if u-float64(col) < a.prob[col] {
		return col
	}
	return a.alias[col]
}

// BuildCompactInto fills prob/alias (each of length len(weights)) with the
// alias table of the distribution proportional to weights, using scratch
// space small/large (each must have capacity ≥ len(weights)). It reports
// whether the distribution has positive mass.
//
// This is the allocation-free kernel used to pack one alias table per graph
// node during LT preprocessing.
func BuildCompactInto(weights []float32, prob []float32, alias []int32, small, large []int32) bool {
	n := len(weights)
	if n == 0 {
		return false
	}
	var total float64
	for _, w := range weights {
		total += float64(w)
	}
	if total <= 0 {
		return false
	}
	small = small[:0]
	large = large[:0]
	scale := float64(n) / total
	for i, w := range weights {
		p := float64(w) * scale
		prob[i] = float32(p)
		if p < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		alias[s] = l
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, l := range large {
		prob[l] = 1
		alias[l] = l
	}
	for _, s := range small {
		prob[s] = 1
		alias[s] = s
	}
	return true
}

// SampleCompact draws one outcome from the length-n alias table stored in
// prob/alias using src.
func SampleCompact(prob []float32, alias []int32, src *Source) int32 {
	n := len(prob)
	u := src.Float64() * float64(n)
	col := int32(u)
	if int(col) >= n {
		col = int32(n - 1)
	}
	if float32(u-float64(col)) < prob[col] {
		return col
	}
	return alias[col]
}
