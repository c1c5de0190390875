package code

import (
	"math/bits"
	"slices"
	"sync"
)

// memo holds a searched arrangement's sequences by word count. It makes
// the generator safe for concurrent use by the parallel sweep drivers
// (which share generators through Cached).
type memo struct {
	mu    sync.Mutex
	cache map[int][]Word
}

// sequence returns a copy of the count-word sequence, searching on a miss.
func (m *memo) sequence(count int, search func(count int) []Word) []Word {
	m.mu.Lock()
	defer m.mu.Unlock()
	words, ok := m.cache[count]
	if !ok && count > 0 {
		words = search(count)
		m.cache[count] = words
	}
	return CloneWords(words)
}

// arrangeSearch is the budgeted backtracking behind the BGC and AHC
// arrangements: a depth-first walk from a start word that applies one move
// per step, never revisits a word, and tries a node's moves cheapest first,
// ties in the order listed. Nothing allocates per node, and the uint64 keys
// give a word of any length an exact identity. The visited set is a
// linear-probing table over the path; words leave the path in the reverse
// order they joined it, so a word that probed past a slot is always gone
// before that slot is cleared, and pop just clears it.
type arrangeSearch struct {
	digit  []byte   // the current word, changed in place
	key    []uint64 // the current word, eight byte-wide digits a key
	buf    []uint64 // the keys of the path words, back to back
	n      int      // words on the path
	slots  []slot   // twice the path or more
	shift  uint     // 64 - log2(len(slots))
	slotOf []int32  // the slot of each path position

	budget int    // nodes left to explore
	usage  []int  // how often each position changed
	moves  []move // a stack of the path nodes' moves
	hot    bool   // moves are AHC transpositions, not BGC value changes
	base   int    // BGC: the radix
	perDig int    // BGC: the per-digit change cap
}

// slot is a visited-set entry: a hash and 1 + a path position, or 0.
type slot struct {
	hash uint64
	pos  int32
}

// move XORs x into the digits at positions i and j, or at i alone when j
// is negative: a value change for BGC, a transposition for AHC.
type move struct {
	i, j, cost int32
	x          byte
}

// newArrangeSearch starts a search for count >= 1 words at start in which a
// node lists at most per moves.
func newArrangeSearch(start Word, count, per int) *arrangeSearch {
	stride := (len(start) + 7) / 8
	size := bits.Len(uint(count)) + 1
	s := &arrangeSearch{
		digit:  make([]byte, len(start)),
		key:    make([]uint64, stride),
		buf:    make([]uint64, count*stride),
		slots:  make([]slot, 1<<size),
		shift:  uint(64 - size),
		slotOf: make([]int32, count),
		usage:  make([]int, len(start)),
		moves:  make([]move, 0, count*per),
	}
	for j, d := range start {
		s.flip(j, byte(d))
	}
	s.push()
	return s
}

// dfs extends the path to count words within the budget. A failed search
// unwinds to the start word with zero usage.
func (s *arrangeSearch) dfs() bool {
	if s.n == len(s.slotOf) {
		return true
	}
	if s.budget <= 0 {
		return false
	}
	s.budget--
	at := len(s.moves)
	s.list()
	moves := s.moves[at:]
	// Stable insertion sort by cost keeps the search deterministic.
	for i := 1; i < len(moves); i++ {
		for k := i; k > 0 && moves[k].cost < moves[k-1].cost; k-- {
			moves[k], moves[k-1] = moves[k-1], moves[k]
		}
	}
	for _, m := range moves {
		s.apply(m, 1)
		if s.push() {
			if s.dfs() {
				return true
			}
			s.pop()
		}
		s.apply(m, -1)
	}
	s.moves = s.moves[:at]
	return false
}

// list pushes the current word's moves. A BGC move changes a digit below
// the cap to another value, costed by the digit's usage, so the least-used
// digits go first and balance emerges greedily; ties break on digit index,
// then value. An AHC move swaps two positions holding different digits,
// costed by their combined usage, so the transitions spread across columns.
func (s *arrangeSearch) list() {
	if s.hot {
		for i := range s.usage {
			for j := i + 1; j < len(s.usage); j++ {
				if x := s.digit[i] ^ s.digit[j]; x != 0 {
					s.moves = append(s.moves, move{int32(i), int32(j), int32(s.usage[i] + s.usage[j]), x})
				}
			}
		}
		return
	}
	for j, u := range s.usage {
		if u >= s.perDig {
			continue
		}
		for v := byte(0); int(v) < s.base; v++ {
			if x := v ^ s.digit[j]; x != 0 {
				s.moves = append(s.moves, move{int32(j), -1, int32(u), x})
			}
		}
	}
}

// apply XORs m into the current word and adds d to the usage of its
// positions; applying it again with -d undoes it.
func (s *arrangeSearch) apply(m move, d int) {
	s.flip(int(m.i), m.x)
	s.usage[m.i] += d
	if m.j >= 0 {
		s.flip(int(m.j), m.x)
		s.usage[m.j] += d
	}
}

// flip XORs x into digit j of the current word.
func (s *arrangeSearch) flip(j int, x byte) {
	s.digit[j] ^= x
	s.key[j/8] ^= uint64(x) << (j % 8 * 8)
}

// push appends the current word to the path and reports true, or reports
// false when the path already holds it.
func (s *arrangeSearch) push() bool {
	key := s.key
	var h uint64
	for _, c := range key {
		h = (h ^ c) * 0x9e3779b97f4a7c15
	}
	i, mask := int(h>>s.shift), len(s.slots)-1
	for ; s.slots[i].pos != 0; i = (i + 1) & mask {
		// An odd multiplier is a bijection, so one-key hashes are exact.
		if e := s.slots[i]; e.hash == h {
			at := int(e.pos-1) * len(key)
			if len(key) == 1 || slices.Equal(s.buf[at:at+len(key)], key) {
				return false
			}
		}
	}
	s.slots[i] = slot{h, int32(s.n + 1)}
	s.slotOf[s.n] = int32(i)
	copy(s.buf[s.n*len(key):], key)
	s.n++
	return true
}

// pop removes the last path word. The caller undoes its move.
func (s *arrangeSearch) pop() {
	s.n--
	s.slots[s.slotOf[s.n]].pos = 0
}

// words returns the path as words of length m sharing one backing array.
// An m of twice the digit count reflects each word: its (base-1)-complement
// follows it.
func (s *arrangeSearch) words(base, m int) []Word {
	l := len(s.usage)
	flat := make([]int, s.n*m)
	out := make([]Word, s.n)
	for i := range out {
		w := flat[i*m : (i+1)*m : (i+1)*m]
		for j := range l {
			w[j] = int(byte(s.buf[i*len(s.key)+j/8] >> (j % 8 * 8)))
			if m > l {
				w[l+j] = base - 1 - w[j]
			}
		}
		out[i] = w
	}
	return out
}
