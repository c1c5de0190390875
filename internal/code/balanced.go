package code

import "fmt"

// BalancedGray is the balanced Gray arrangement BGC (after Bhat & Savage):
// a Gray sequence — successive base words differ in exactly one digit — in
// which the digit transitions are additionally spread as evenly as possible
// across the digit positions, targeting the paper's limit of at most two
// changes per digit. Balancing flattens the variability matrix Σ: no single
// mesowire column accumulates a disproportionate number of implantation
// doses.
//
// The arrangement is found by deterministic backtracking over the Hamming
// graph of the code space with an iteratively deepened per-digit change cap,
// starting at the information-theoretic minimum ceil((count-1)/(M/2)). When
// the search budget is exhausted the generator degrades gracefully to the
// plain Gray arrangement, so Sequence never fails for feasible counts.
type BalancedGray struct {
	base   int
	length int

	// DigitChangeTarget is the preferred per-digit change cap; the paper
	// sets it to 2. The search starts at the feasibility minimum and stops
	// deepening once a sequence within max(target, minimum) is found.
	DigitChangeTarget int

	// SearchBudget bounds the number of DFS nodes explored per cap level.
	SearchBudget int

	memo memo
}

// DefaultBGCSearchBudget is the per-cap node budget of the backtracking
// search. Some of the paper's sequences exhaust it: BGC M=10 with 26 words
// spends all of it at cap 5, and then cap 6 succeeds in 25 nodes.
const DefaultBGCSearchBudget = 2_000_000

// NewBalancedGray returns the balanced Gray arrangement with total
// (reflected) word length M.
func NewBalancedGray(base, length int) (*BalancedGray, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if length < 2 || length%2 != 0 {
		return nil, fmt.Errorf("code: reflected balanced Gray code needs even length >= 2, got %d", length)
	}
	return &BalancedGray{
		base:              base,
		length:            length,
		DigitChangeTarget: 2,
		SearchBudget:      DefaultBGCSearchBudget,
		memo:              memo{cache: make(map[int][]Word)},
	}, nil
}

// Type implements Generator.
func (b *BalancedGray) Type() Type { return TypeBalancedGray }

// Base implements Generator.
func (b *BalancedGray) Base() int { return b.base }

// Length implements Generator.
func (b *BalancedGray) Length() int { return b.length }

// BaseLength returns the number of free digits M/2.
func (b *BalancedGray) BaseLength() int { return b.length / 2 }

// SpaceSize implements Generator: Ω = n^(M/2).
func (b *BalancedGray) SpaceSize() int { return pow(b.base, b.BaseLength()) }

// Sequence implements Generator. The returned words are reflected.
func (b *BalancedGray) Sequence(count int) ([]Word, error) {
	if count < 0 {
		return nil, fmt.Errorf("code: negative word count %d", count)
	}
	if count > b.SpaceSize() {
		return nil, fmt.Errorf("%w: balanced Gray code base %d length %d has %d words, requested %d",
			ErrCountExceedsSpace, b.base, b.length, b.SpaceSize(), count)
	}
	return b.memo.sequence(count, b.search), nil
}

// search returns count reflected words whose base words form a Gray path
// with the smallest achievable maximum per-digit change count.
func (b *BalancedGray) search(count int) []Word {
	l := b.BaseLength()
	s := newArrangeSearch(make(Word, l), count, l*(b.base-1))
	s.base = b.base
	minCap := (count - 2 + l) / l // ceil((count-1)/l)
	for c := minCap; c <= count-1; c++ {
		// A failed search has unwound to the start word, so each cap
		// reuses it with a fresh budget.
		s.perDig, s.budget = c, b.SearchBudget
		if s.dfs() {
			return s.words(b.base, b.length)
		}
		if c >= b.DigitChangeTarget && c >= minCap+2 {
			// Deepening further trades balance for search time with no
			// benefit over the plain Gray fallback.
			break
		}
	}
	// Fallback: plain Gray arrangement (always a valid Gray path).
	g := &Gray{base: b.base, length: b.length}
	out := make([]Word, count)
	for i := range out {
		out[i] = g.BaseWord(i).Reflect(b.base)
	}
	return out
}
