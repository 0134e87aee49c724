package agent

import (
	"strings"
	"sync/atomic"
)

// Matcher standardizes raw User-Agent header values to canonical bots.
// It implements the paper's two-step standardization (§3.1): exact/substring
// matching against a known-useragents dataset, then fuzzy string matching to
// absorb version drift and minor misspellings.
//
// Ties are broken by a total order, so a verdict is a pure function of the
// UA, the registry and FuzzyThreshold: the longest contained token wins,
// then the token registered first; in the fuzzy stage the lowest distance
// wins, then the earliest candidate in the UA, then registry order.
//
// A Matcher is safe for concurrent use once built, as long as its registry
// is not modified concurrently with Match.
type Matcher struct {
	reg *Registry
	// FuzzyThreshold is the maximum Damerau-Levenshtein distance (as a
	// fraction of token length) tolerated by the fuzzy stage. Zero disables
	// fuzzy matching. The default 0.2 allows ~1 edit per 5 characters.
	FuzzyThreshold float64
	// idx is the registry compiled for matching. It is built by the first
	// Match rather than by NewMatcher, and rebuilt when the registry's
	// generation moves past it.
	idx atomic.Pointer[index]
}

// NewMatcher builds a matcher over the given registry. A nil registry uses
// DefaultRegistry.
func NewMatcher(reg *Registry) *Matcher {
	if reg == nil {
		reg = DefaultRegistry()
	}
	return &Matcher{reg: reg, FuzzyThreshold: 0.2}
}

// Registry exposes the underlying registry.
func (m *Matcher) Registry() *Registry { return m.reg }

// Match resolves a raw User-Agent header to a known bot. The second return
// is false when no known bot matches (an "anonymous" agent in the paper's
// terms). It allocates nothing for an ASCII User-Agent.
func (m *Matcher) Match(userAgent string) (*Bot, bool) {
	ix := m.index()
	ua, ok := trimASCII(userAgent)
	if !ok {
		// Unicode case mapping is not byte folding: the Kelvin sign lowers
		// to an ASCII 'k' and 'İ' to "i̇", and a non-ASCII space may be
		// trimmed. Lowering a copy keeps such input exact; the stages below
		// read it like an ASCII UA, since lowered bytes fold to themselves.
		ua = strings.ToLower(strings.TrimSpace(userAgent))
	}
	if ua == "" {
		return nil, false
	}

	// Stage 1: substring scan for known tokens. Longest token wins so that
	// "googlebot-image" is preferred over "googlebot" when both occur.
	if t := ix.longest(ua); t >= 0 {
		return ix.toks[t].bot, true
	}

	// Stage 2: fuzzy comparison of the UA's product tokens against known
	// tokens, absorbing typos like "googelbot" or vendor renames with
	// punctuation drift.
	if th := m.FuzzyThreshold; th > 0 {
		if t := ix.nearest(ua, th); t >= 0 {
			return ix.toks[t].bot, true
		}
	}
	return nil, false
}

// index returns the compiled registry, compiling it if the registry has
// changed since. Concurrent first calls may each compile; they build the
// same index, and the last store wins.
func (m *Matcher) index() *index {
	ix := m.idx.Load()
	if ix == nil || ix.gen != m.reg.gen {
		ix = compile(m.reg)
		m.idx.Store(ix)
	}
	return ix
}

// Name returns the canonical bot name for a raw UA, or the empty string.
func (m *Matcher) Name(userAgent string) string {
	if b, ok := m.Match(userAgent); ok {
		return b.Name
	}
	return ""
}

// CategoryOf returns the category for a raw UA, CategoryUnknown if unmatched.
func (m *Matcher) CategoryOf(userAgent string) Category {
	if b, ok := m.Match(userAgent); ok {
		return b.Category
	}
	return CategoryUnknown
}

// trimASCII returns s without leading and trailing ASCII white space, which
// is what strings.TrimSpace removes from an ASCII string. ok is false when s
// holds a byte of 0x80 or above.
func trimASCII(s string) (string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return "", false
		}
	}
	lo, hi := 0, len(s)
	for lo < hi && asciiSpace(s[lo]) {
		lo++
	}
	for hi > lo && asciiSpace(s[hi-1]) {
		hi--
	}
	return s[lo:hi], true
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// lower folds an ASCII upper-case letter to lower case.
func lower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// isTokenByte reports whether c, case-folded, belongs to a product token:
// [a-z0-9._-].
func isTokenByte(c byte) bool {
	l := c | 0x20
	return l >= 'a' && l <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.'
}

// genericToken reports whether the token, ignoring ASCII case, is browser
// boilerplate that must never fuzzy-match a bot name.
func genericToken(t string) bool {
	var buf [len("applewebkit")]byte // the longest generic token
	if len(t) > len(buf) {
		return false
	}
	for i := 0; i < len(t); i++ {
		buf[i] = lower(t[i])
	}
	switch string(buf[:len(t)]) {
	case "mozilla", "applewebkit", "khtml", "like", "gecko", "chrome",
		"safari", "compatible", "windows", "linux", "macintosh", "x11",
		"intel", "mac", "os", "x", "nt", "win64", "x64", "wow64", "version",
		"mobile", "android", "http", "https", "www", "com", "html", "htm":
		return true
	}
	return false
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
