package code

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// This file holds the reference oracle of the two arrangement searches:
// the original map-and-string backtracking, with a visited set keyed by
// Word.Key, a cloned word per step and a freshly sorted digit order or
// move list per node. The production searches (BalancedGray.search,
// ArrangedHot.search) must reproduce it word for word, including the node
// at which a budget runs out and the fallback that follows.

var updateArrangements = flag.Bool("update", false, "rewrite testdata/arrangements.golden")

// refBalancedGray returns the reflected balanced Gray sequence the
// reference search finds for count words.
func refBalancedGray(base, length, count, target, budget int) []Word {
	l := length / 2
	var bases []Word
	switch {
	case count == 0:
	case count == 1:
		bases = []Word{make(Word, l)}
	default:
		bases = refBGCBase(base, l, count, target, budget)
	}
	out := make([]Word, len(bases))
	for i, w := range bases {
		out[i] = w.Reflect(base)
	}
	return out
}

func refBGCBase(base, l, count, target, budget int) []Word {
	start := make(Word, l)
	minCap := (count - 2 + l) / l
	for c := minCap; c <= count-1; c++ {
		s := &refBGC{
			base:    base,
			count:   count,
			perDig:  c,
			budget:  budget,
			visited: map[string]bool{start.Key(): true},
			usage:   make([]int, l),
			path:    []Word{start},
		}
		if s.dfs() {
			return s.path
		}
		if c >= target && c >= minCap+2 {
			break
		}
	}
	g := &Gray{base: base, length: 2 * l}
	out := make([]Word, count)
	for i := range out {
		out[i] = g.BaseWord(i)
	}
	return out
}

type refBGC struct {
	base, count, perDig, budget int
	visited                     map[string]bool
	usage                       []int
	path                        []Word
}

func (s *refBGC) dfs() bool {
	if len(s.path) == s.count {
		return true
	}
	if s.budget <= 0 {
		return false
	}
	s.budget--
	cur := s.path[len(s.path)-1]
	for _, j := range refDigitOrder(s.usage) {
		if s.usage[j] >= s.perDig {
			continue
		}
		old := cur[j]
		for v := 0; v < s.base; v++ {
			if v == old {
				continue
			}
			cur[j] = v
			key := cur.Key()
			if !s.visited[key] {
				s.visited[key] = true
				s.usage[j]++
				s.path = append(s.path, cur.Clone())
				if s.dfs() {
					cur[j] = old
					return true
				}
				s.path = s.path[:len(s.path)-1]
				s.usage[j]--
				delete(s.visited, key)
			}
		}
		cur[j] = old
	}
	return false
}

// refDigitOrder returns digit indices sorted by ascending usage, stable on
// index.
func refDigitOrder(usage []int) []int {
	order := make([]int, len(usage))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && usage[order[k]] < usage[order[k-1]]; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	return order
}

// refArrangedHot returns the arranged hot sequence the reference search
// finds for count words, or the lexicographic hot order when it fails.
func refArrangedHot(base, length, count, budget int) []Word {
	h, err := NewHot(base, length)
	if err != nil {
		panic(err)
	}
	if count == 0 {
		return nil
	}
	start := make(Word, length)
	for i := range start {
		start[i] = i / h.k
	}
	if count == 1 {
		return []Word{start}
	}
	s := &refAHC{
		count:   count,
		budget:  budget,
		visited: map[string]bool{start.Key(): true},
		usage:   make([]int, length),
		path:    []Word{start},
	}
	if s.dfs() {
		return s.path
	}
	words, err := h.Sequence(count)
	if err != nil {
		panic(err)
	}
	return words
}

type refAHC struct {
	count, budget int
	visited       map[string]bool
	usage         []int
	path          []Word
}

func (s *refAHC) dfs() bool {
	if len(s.path) == s.count {
		return true
	}
	if s.budget <= 0 {
		return false
	}
	s.budget--
	cur := s.path[len(s.path)-1]
	type move struct{ i, j, cost int }
	var moves []move
	for i := 0; i < len(cur); i++ {
		for j := i + 1; j < len(cur); j++ {
			if cur[i] != cur[j] {
				moves = append(moves, move{i, j, s.usage[i] + s.usage[j]})
			}
		}
	}
	for i := 1; i < len(moves); i++ {
		for k := i; k > 0 && moves[k].cost < moves[k-1].cost; k-- {
			moves[k], moves[k-1] = moves[k-1], moves[k]
		}
	}
	for _, m := range moves {
		cur[m.i], cur[m.j] = cur[m.j], cur[m.i]
		key := cur.Key()
		if !s.visited[key] {
			s.visited[key] = true
			s.usage[m.i]++
			s.usage[m.j]++
			s.path = append(s.path, cur.Clone())
			if s.dfs() {
				cur[m.i], cur[m.j] = cur[m.j], cur[m.i]
				return true
			}
			s.path = s.path[:len(s.path)-1]
			s.usage[m.i]--
			s.usage[m.j]--
			delete(s.visited, key)
		}
		cur[m.i], cur[m.j] = cur[m.j], cur[m.i]
	}
	return false
}

// arrangementCell is one (family, base, M) code space of the golden.
type arrangementCell struct {
	tp           Type
	base, length int
}

// goldenCells lists the code spaces pinned by testdata/arrangements.golden:
// binary BGC up to M=12 (the registry's sizes, the budget-exhausting
// M=10 N=26 cell among them), ternary and quaternary BGC up to M=8, and
// AHC at every (base, M) the experiment registry and the served design
// space use.
func goldenCells() []arrangementCell {
	var cells []arrangementCell
	for m := 2; m <= 12; m += 2 {
		cells = append(cells, arrangementCell{TypeBalancedGray, 2, m})
	}
	for _, base := range []int{3, 4} {
		for m := 2; m <= 8; m += 2 {
			cells = append(cells, arrangementCell{TypeBalancedGray, base, m})
		}
	}
	for _, c := range [][2]int{{2, 4}, {2, 6}, {2, 8}, {2, 10}, {3, 6}, {4, 4}} {
		cells = append(cells, arrangementCell{TypeArrangedHot, c[0], c[1]})
	}
	return cells
}

// TestArrangementGolden pins every sequence of count <= min(Ω, 40) words in
// the golden cells, byte for byte. Run with -update to accept an
// intentional change.
func TestArrangementGolden(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("# family base M count: words of the arrangement, in order\n")
	for _, cell := range goldenCells() {
		g, err := New(cell.tp, cell.base, cell.length)
		if err != nil {
			t.Fatal(err)
		}
		for count := 0; count <= min(g.SpaceSize(), 40); count++ {
			words, err := g.Sequence(count)
			if err != nil {
				t.Fatalf("%v base %d M %d count %d: %v", cell.tp, cell.base, cell.length, count, err)
			}
			fmt.Fprintf(&buf, "%v %d %d %d:", cell.tp, cell.base, cell.length, count)
			for _, w := range words {
				buf.WriteByte(' ')
				buf.WriteString(w.String())
			}
			buf.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "arrangements.golden")
	if *updateArrangements {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs from the golden:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
}

// checkAgainstReference compares a production sequence with the oracle's,
// running both under the same search budget.
func checkAgainstReference(t *testing.T, tp Type, base, length, count, budget int) {
	t.Helper()
	var got, want []Word
	var err error
	switch tp {
	case TypeBalancedGray:
		b, e := NewBalancedGray(base, length)
		if e != nil {
			t.Fatal(e)
		}
		b.SearchBudget = budget
		got, err = b.Sequence(count)
		want = refBalancedGray(base, length, count, b.DigitChangeTarget, budget)
	case TypeArrangedHot:
		a, e := NewArrangedHot(base, length)
		if e != nil {
			t.Fatal(e)
		}
		a.SearchBudget = budget
		got, err = a.Sequence(count)
		want = refArrangedHot(base, length, count, budget)
	default:
		t.Fatalf("no reference search for %v", tp)
	}
	if err != nil {
		t.Fatalf("%v base %d M %d count %d: %v", tp, base, length, count, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%v base %d M %d count %d budget %d: %d words, reference has %d",
			tp, base, length, count, budget, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%v base %d M %d count %d budget %d: word %d is %v, reference has %v",
				tp, base, length, count, budget, i, got[i], want[i])
		}
	}
}

// TestArrangementLargeSpaces compares the searches with the oracle where
// the code space Ω saturates or nearly saturates an int, so a word no
// longer fits one machine word in any positional encoding.
func TestArrangementLargeSpaces(t *testing.T) {
	for _, c := range []arrangementCell{
		{TypeBalancedGray, 2, 40},
		{TypeBalancedGray, 2, 64},
		{TypeBalancedGray, 2, 130},
		{TypeBalancedGray, 2, 140},
		{TypeArrangedHot, 2, 20},
	} {
		t.Run(fmt.Sprintf("%v-M%d", c.tp, c.length), func(t *testing.T) {
			checkAgainstReference(t, c.tp, c.base, c.length, 20, DefaultBGCSearchBudget)
		})
	}
}

// FuzzArrangementMatchesReference runs both searches and the oracle on
// small code spaces under budgets from 0 to 50,000 nodes, so budget
// exhaustion, cap deepening and the fallback must all happen at the same
// node as in the reference.
func FuzzArrangementMatchesReference(f *testing.F) {
	f.Add(2, 10, 26, 50_000)
	f.Add(2, 8, 16, 3)
	f.Add(3, 6, 20, 0)
	f.Add(4, 4, 20, 1_000)
	f.Add(2, 12, 40, 20_000)
	f.Fuzz(func(t *testing.T, base, length, count, budget int) {
		base = 2 + abs(base)%3
		length = 2 + abs(length)%11 // 2..12
		budget = abs(budget) % 50_001
		if length%2 == 0 {
			n := 1 + abs(count)%min(pow(base, length/2), 48)
			checkAgainstReference(t, TypeBalancedGray, base, length, n, budget)
		}
		if length%base == 0 {
			n := 1 + abs(count)%min(multinomial(length, base, length/base), 48)
			checkAgainstReference(t, TypeArrangedHot, base, length, n, budget)
		}
	})
}
