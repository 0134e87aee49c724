package agent

import (
	"math"
	"math/bits"
)

// index is a registry compiled for Match: an Aho–Corasick automaton for the
// substring stage and length buckets for the fuzzy stage. It never changes
// once built, so concurrent Match calls share it.
type index struct {
	gen  uint64  // the registry generation it was compiled from
	toks []token // registry order; an index into toks is a token's rank

	// class maps a byte to its symbol in the automaton's alphabet: one
	// class per distinct byte of the tokens, 0 for every other byte, and
	// an ASCII upper-case letter shares its lower-case letter's class.
	// Registry keys are lower-cased, so no token holds an upper-case
	// ASCII letter of its own.
	class [256]uint8
	width int // number of classes, the row length of next

	// next is the automaton's transition table, next[state*width+class];
	// state 0 is the root. out[state] is the best token ending there —
	// the longest, ties to the lowest rank — or -1.
	next []int32
	out  []int32

	// byLen[L] lists the ranks of the tokens of length L >= minFuzzyLen,
	// ascending.
	byLen [][]int32
}

// token is one registry token with the bot that owns it.
type token struct {
	s   string
	cls []uint8 // s mapped through index.class
	sig uint64  // the set of classes in s, class c as bit c%64
	bot *Bot
}

// minFuzzyLen is the shortest candidate or token the fuzzy stage compares;
// shorter strings are too short to fuzzy-match safely.
const minFuzzyLen = 4

// compile builds the index of r's current tokens.
func compile(r *Registry) *index {
	ix := &index{gen: r.gen, toks: make([]token, len(r.tokens)), width: 1}
	for _, t := range r.tokens {
		for i := 0; i < len(t); i++ {
			if ix.class[t[i]] == 0 {
				ix.class[t[i]] = uint8(ix.width)
				ix.width++
			}
		}
	}
	for c := byte('A'); c <= 'Z'; c++ {
		ix.class[c] = ix.class[lower(c)]
	}

	// The trie of all tokens. A zero entry is a missing edge, since no
	// edge leads back to the root.
	w := ix.width
	ix.next = make([]int32, w)
	term := []int32{-1}
	for rank, t := range r.tokens {
		cls := make([]uint8, len(t))
		var sig uint64
		st := 0
		for i := 0; i < len(t); i++ {
			cls[i] = ix.class[t[i]]
			sig |= 1 << (cls[i] % 64)
			e := st*w + int(cls[i])
			if ix.next[e] == 0 {
				ix.next[e] = int32(len(term))
				ix.next = append(ix.next, make([]int32, w)...)
				term = append(term, -1)
			}
			st = int(ix.next[e])
		}
		if len(t) > 0 {
			term[st] = int32(rank)
		}
		ix.toks[rank] = token{s: t, cls: cls, sig: sig, bot: r.byToken[t]}
		if len(t) >= minFuzzyLen {
			for len(ix.byLen) <= len(t) {
				ix.byLen = append(ix.byLen, nil)
			}
			ix.byLen[len(t)] = append(ix.byLen[len(t)], int32(rank))
		}
	}

	// Breadth-first, fill each state's missing edges from its failure
	// state, whose row is already complete because it is shallower. A
	// state's own token is longer than any token ending at its failure
	// state, so it is the state's best output when it has one.
	ix.out = make([]int32, len(term))
	ix.out[0] = -1
	fail := make([]int32, len(term))
	queue := make([]int32, 0, len(term))
	for c := 0; c < w; c++ {
		if u := ix.next[c]; u != 0 {
			queue = append(queue, u)
		}
	}
	for h := 0; h < len(queue); h++ {
		st := queue[h]
		ix.out[st] = term[st]
		if ix.out[st] < 0 {
			ix.out[st] = ix.out[fail[st]]
		}
		row, frow := ix.next[int(st)*w:][:w], ix.next[int(fail[st])*w:][:w]
		for c := range row {
			if u := row[c]; u != 0 {
				fail[u] = frow[c]
				queue = append(queue, u)
			} else {
				row[c] = frow[c]
			}
		}
	}
	return ix
}

// longest returns the rank of the longest token contained in s, ignoring
// ASCII case, with ties to the lowest rank, or -1. It is one automaton pass
// over s.
func (ix *index) longest(s string) int {
	best, bestLen := -1, 0
	w, st := ix.width, int32(0)
	for i := 0; i < len(s); i++ {
		st = ix.next[int(st)*w+int(ix.class[s[i]])]
		if o := ix.out[st]; o >= 0 {
			if l := len(ix.toks[o].s); l > bestLen || l == bestLen && int(o) < best {
				best, bestLen = int(o), l
			}
		}
	}
	return best
}

// nearest runs the fuzzy stage over s: each candidate — a maximal run of
// token bytes that is not browser boilerplate — is compared with every
// token whose length is within the threshold's edit budget. It returns the
// rank of the token at the lowest distance, ties to the earliest candidate
// and then the lowest rank, or -1.
func (ix *index) nearest(s string, th float64) int {
	var peq [256]uint64 // candidate bitmasks by byte class, zero between candidates
	best, bestDist := -1, math.MaxInt
	for i := 0; i < len(s); {
		for i < len(s) && !isTokenByte(s[i]) {
			i++
		}
		start := i
		for i < len(s) && isTokenByte(s[i]) {
			i++
		}
		cand := s[start:i]
		if len(cand) < minFuzzyLen || genericToken(cand) {
			continue
		}
		if t, d := ix.nearestTo(cand, th, &peq); t >= 0 && d < bestDist {
			best, bestDist = t, d
			if d == 1 {
				// Distance 0 would mean the token is contained in s, which
				// the substring stage rules out, so one edit is final.
				break
			}
		}
	}
	return best
}

// nearestTo returns the rank and distance of the token closest to cand
// within each token's edit budget, ties to the lowest rank, or -1. peq must
// be all zero, and is again on return.
func (ix *index) nearestTo(cand string, th float64, peq *[256]uint64) (best, bestDist int) {
	best, bestDist = -1, math.MaxInt
	short := len(cand) <= 64
	var sig uint64
	for i := 0; i < len(cand); i++ {
		c := ix.class[cand[i]]
		sig |= 1 << (c % 64)
		if short {
			peq[c] |= 1 << i
		}
	}
	for l := minFuzzyLen; l < len(ix.byLen); l++ {
		// The same budget expression as ever, so every threshold
		// (including values the conversion overflows on) decides alike.
		budget := int(th * float64(l))
		if budget == 0 || abs(len(cand)-l) > budget {
			continue
		}
		for _, rank := range ix.byLen[l] {
			t := &ix.toks[rank]
			// Each byte value one string holds and the other lacks costs
			// at least one edit, so a signature bit set on one side only
			// is a lower bound on the distance.
			if bits.OnesCount64(sig&^t.sig) > budget || bits.OnesCount64(t.sig&^sig) > budget {
				continue
			}
			var d int
			if short {
				d = osaBits(peq, len(cand), t.cls)
			} else if d = damerauLevenshtein(cand, t.s, budget); d < 0 {
				continue
			}
			if d <= budget && (d < bestDist || d == bestDist && int(rank) < best) {
				best, bestDist = int(rank), d
			}
		}
	}
	if short {
		for i := 0; i < len(cand); i++ {
			peq[ix.class[cand[i]]] = 0
		}
	}
	return best, bestDist
}

// osaBits is the optimal-string-alignment (restricted Damerau-Levenshtein)
// distance between a pattern of m bytes, 1 <= m <= 64, given by its match
// masks peq (bit i of peq[c] is set when pattern byte i has class c), and
// the text whose byte classes are text. It is Hyyrö's bit-vector algorithm
// (Nordic J. Computing, 2003): Myers' vertical-delta recurrence plus one
// term for adjacent transpositions, one column per text byte.
func osaBits(peq *[256]uint64, m int, text []uint8) int {
	vp, vn := ^uint64(0), uint64(0)
	var d0, pmPrev uint64
	dist, last := m, uint64(1)<<(m-1)
	for _, c := range text {
		pm := peq[c]
		tr := (^d0 & pm) << 1 & pmPrev
		d0 = ((pm & vp) + vp) ^ vp | pm | vn | tr
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		if hp&last != 0 {
			dist++
		}
		if hn&last != 0 {
			dist--
		}
		hp = hp<<1 | 1
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = hp & d0
		pmPrev = pm
	}
	return dist
}

// damerauLevenshtein computes the optimal-string-alignment distance between
// a and b, ignoring ASCII case, abandoning early (returning -1) when the
// distance necessarily exceeds maxDist. This is the restricted
// Damerau-Levenshtein variant (adjacent transpositions, no substring
// moves), which is what fuzzy UA matching needs. The fuzzy stage uses it
// for candidates too long for osaBits; it allocates only when b is longer
// than 64 bytes.
func damerauLevenshtein(a, b string, maxDist int) int {
	la, lb := len(a), len(b)
	if abs(la-lb) > maxDist {
		return -1
	}
	// Three rolling rows: two-back (for transpositions), previous, current.
	var buf [3 * 65]int
	rows := buf[:]
	if 3*(lb+1) > len(buf) {
		rows = make([]int, 3*(lb+1))
	}
	prev2, prev, cur := rows[:lb+1], rows[lb+1:2*(lb+1)], rows[2*(lb+1):3*(lb+1)]
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		ai := lower(a[i-1])
		for j := 1; j <= lb; j++ {
			bj := lower(b[j-1])
			cost := 1
			if ai == bj {
				cost = 0
			}
			v := min(
				prev[j]+1,      // deletion
				cur[j-1]+1,     // insertion
				prev[j-1]+cost, // substitution
			)
			if i > 1 && j > 1 && ai == lower(b[j-2]) && lower(a[i-2]) == bj {
				if t := prev2[j-2] + 1; t < v {
					v = t // transposition
				}
			}
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		// Row minima never decrease, so the distance is already over budget.
		if rowMin > maxDist {
			return -1
		}
		prev2, prev, cur = prev, cur, prev2
	}
	d := prev[lb]
	if d > maxDist {
		return -1
	}
	return d
}
