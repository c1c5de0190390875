package code

import "fmt"

// ArrangedHot is the arranged hot code AHC: the words of the hot code
// HC(M, k) re-ordered in a Gray-code fashion so that successive words differ
// in the minimum possible number of digits. Because the value counts of a
// hot-code word are fixed, a single-digit change is impossible; the minimum
// is two digits (one transposition), and Sec. 5.2 of the paper reports that
// such an arrangement always exists for the space sizes relevant to
// nanowire arrays.
//
// The arrangement is found by deterministic backtracking with per-digit
// usage balancing (the same secondary objective as the balanced Gray code),
// so the AHC inherits both the minimal transition count and an even spread
// of doses across mesowire columns.
type ArrangedHot struct {
	hot *Hot

	// SearchBudget bounds the number of DFS nodes explored per search.
	SearchBudget int

	memo memo
}

// NewArrangedHot returns the arranged hot code with word length M over the
// given base.
func NewArrangedHot(base, length int) (*ArrangedHot, error) {
	h, err := NewHot(base, length)
	if err != nil {
		return nil, err
	}
	return &ArrangedHot{
		hot:          h,
		SearchBudget: DefaultBGCSearchBudget,
		memo:         memo{cache: make(map[int][]Word)},
	}, nil
}

// Type implements Generator.
func (a *ArrangedHot) Type() Type { return TypeArrangedHot }

// Base implements Generator.
func (a *ArrangedHot) Base() int { return a.hot.base }

// Length implements Generator.
func (a *ArrangedHot) Length() int { return a.hot.length }

// K returns the multiplicity k of the underlying hot code.
func (a *ArrangedHot) K() int { return a.hot.k }

// SpaceSize implements Generator.
func (a *ArrangedHot) SpaceSize() int { return a.hot.SpaceSize() }

// Sequence implements Generator: the first count words of a minimal-
// transition arrangement of the hot-code space.
func (a *ArrangedHot) Sequence(count int) ([]Word, error) {
	if count < 0 {
		return nil, fmt.Errorf("code: negative word count %d", count)
	}
	if count > a.SpaceSize() {
		return nil, fmt.Errorf("%w: arranged hot code (M=%d, k=%d, n=%d) has %d words, requested %d",
			ErrCountExceedsSpace, a.hot.length, a.hot.k, a.hot.base, a.SpaceSize(), count)
	}
	return a.memo.sequence(count, a.search), nil
}

// search finds count distinct hot-code words where successive words differ
// by exactly one transposition. It falls back to the lexicographic hot-code
// order if the budgeted search fails (which does not happen for the spaces
// the paper considers; the fallback keeps the API total).
func (a *ArrangedHot) search(count int) []Word {
	// Canonical start: the lexicographically smallest word 0^k 1^k ... .
	m, n, k := a.hot.length, a.hot.base, a.hot.k
	start := make(Word, m)
	for i := range start {
		start[i] = i / k
	}
	// Every hot word has the same composition, so every node lists the
	// same number of moves: the position pairs holding different digits.
	s := newArrangeSearch(start, count, (m*(m-1)-n*k*(k-1))/2)
	s.hot, s.budget = true, a.SearchBudget
	if s.dfs() {
		return s.words(n, m)
	}
	words, err := a.hot.Sequence(count)
	if err != nil {
		// count was validated against the space size already.
		panic("code: hot fallback failed: " + err.Error())
	}
	return words
}
