// Package code implements the nanowire encoding schemes of the paper:
// n-ary tree codes (TC), their Gray (GC) and balanced-Gray (BGC)
// arrangements, hot codes (HC) and arranged hot codes (AHC), together with
// the reflection operation and the transition metrics that drive the
// fabrication-complexity and variability analysis.
//
// A code word is a fixed-length vector of digits in {0, ..., n-1}. The rows
// of the pattern matrix P of the MSPT decoder are consecutive words of a
// chosen code sequence, so the *arrangement* of a code space — how many
// digits flip between successive words and in which columns — directly sets
// the number of extra lithography/doping steps (Φ) and the threshold-voltage
// variability (Σ) of the fabricated decoder.
package code

import (
	"fmt"
	"strconv"
	"strings"
)

// Word is a code word: digits most-significant first, each in [0, base).
type Word []int

// Clone returns an independent copy of w.
func (w Word) Clone() Word {
	return append(Word(nil), w...)
}

// Equal reports whether w and v have identical length and digits.
func (w Word) Equal(v Word) bool {
	if len(w) != len(v) {
		return false
	}
	for i := range w {
		if w[i] != v[i] {
			return false
		}
	}
	return true
}

// Hamming returns the number of positions at which w and v differ.
// It panics if the lengths differ.
func (w Word) Hamming(v Word) int {
	if len(w) != len(v) {
		panic(fmt.Sprintf("code: Hamming distance of words with lengths %d and %d", len(w), len(v)))
	}
	d := 0
	for i := range w {
		if w[i] != v[i] {
			d++
		}
	}
	return d
}

// Complement returns the digit-wise (base-1)-complement of w, the quantity
// subtracted from the largest word of the space in the paper's reflection
// rule: complement(d) = base-1-d.
func (w Word) Complement(base int) Word {
	c := make(Word, len(w))
	for i, d := range w {
		c[i] = base - 1 - d
	}
	return c
}

// Reflect returns w with its complement appended, doubling the length. This
// is the "reflected" form required to address nanowires with tree-based
// codes (Sec. 2.3): e.g. 0010 over base 3 becomes 00102212.
func (w Word) Reflect(base int) Word {
	return append(w.Clone(), w.Complement(base)...)
}

// IsReflectionOf reports whether w equals base word v followed by its
// complement.
func (w Word) IsReflectionOf(v Word, base int) bool {
	return len(w) == 2*len(v) && w.Equal(v.Reflect(base))
}

// Valid reports whether every digit of w lies in [0, base).
func (w Word) Valid(base int) bool {
	for _, d := range w {
		if d < 0 || d >= base {
			return false
		}
	}
	return true
}

// Counts returns how many times each value 0..base-1 occurs in w.
func (w Word) Counts(base int) []int {
	c := make([]int, base)
	for _, d := range w {
		if d >= 0 && d < base {
			c[d]++
		}
	}
	return c
}

// Key returns a compact comparable key for use in maps: one character per
// digit. It panics on a digit outside [0, 36), the largest supported base.
func (w Word) Key() string {
	var sb strings.Builder
	for _, d := range w {
		if d < 0 || d >= 36 {
			panic("code: Key supports digits in [0,36)")
		}
		sb.WriteByte(digitChar(d))
	}
	return sb.String()
}

// String renders the word as a digit string, e.g. "00102212".
func (w Word) String() string { return w.Key() }

func digitChar(d int) byte {
	if d < 10 {
		return byte('0' + d)
	}
	return byte('a' + d - 10)
}

// ParseWord parses a digit string produced by Word.String back into a Word
// and validates it against the given base.
func ParseWord(s string, base int) (Word, error) {
	w := make(Word, 0, len(s))
	for i, r := range s {
		d, err := strconv.ParseInt(string(r), 36, 32)
		if err != nil {
			return nil, fmt.Errorf("code: invalid digit %q at position %d", r, i)
		}
		w = append(w, int(d))
	}
	if !w.Valid(base) {
		return nil, fmt.Errorf("code: word %q has digits outside base %d", s, base)
	}
	return w, nil
}

// FromDigits builds a Word from the given digits (a convenience for tests
// and examples); the digits are copied.
func FromDigits(digits ...int) Word {
	return append(Word(nil), digits...)
}

// CloneWords returns a deep copy of a word slice.
func CloneWords(ws []Word) []Word {
	out := make([]Word, len(ws))
	for i, w := range ws {
		out[i] = w.Clone()
	}
	return out
}
