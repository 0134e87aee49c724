package agent

import (
	"math/rand"
	"strings"
	"testing"
)

// referenceMatch is the straightforward standardization the compiled
// matcher must reproduce: lower-case and trim the UA, keep the longest
// registry token it contains (ties to registry order), else compare every
// product token with every registry token by Damerau-Levenshtein distance
// (ties to the earliest candidate, then registry order).
func referenceMatch(reg *Registry, th float64, userAgent string) (*Bot, bool) {
	ua := strings.ToLower(strings.TrimSpace(userAgent))
	if ua == "" {
		return nil, false
	}
	var (
		best    *Bot
		bestLen int
	)
	for _, token := range reg.tokens {
		if len(token) > bestLen && strings.Contains(ua, token) {
			best, bestLen = reg.byToken[token], len(token)
		}
	}
	if best != nil {
		return best, true
	}
	if th > 0 {
		if bot := referenceFuzzy(reg, th, ua); bot != nil {
			return bot, true
		}
	}
	return nil, false
}

func referenceFuzzy(reg *Registry, th float64, ua string) *Bot {
	var (
		best     *Bot
		bestDist = 1 << 30
	)
	for _, cand := range referenceTokens(ua) {
		if len(cand) < 4 {
			continue
		}
		for _, token := range reg.tokens {
			if len(token) < 4 {
				continue
			}
			maxDist := int(th * float64(len(token)))
			if maxDist == 0 {
				continue
			}
			if abs(len(cand)-len(token)) > maxDist {
				continue
			}
			d := referenceDL(cand, token, maxDist)
			if d >= 0 && d <= maxDist && d < bestDist {
				best, bestDist = reg.byToken[token], d
				if d == 1 {
					return best
				}
			}
		}
	}
	return best
}

// referenceTokens splits a lower-cased UA into maximal runs of
// [a-z0-9._-], dropping browser boilerplate.
func referenceTokens(ua string) []string {
	isTok := func(c byte) bool {
		return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.'
	}
	var out []string
	i := 0
	for i < len(ua) {
		for i < len(ua) && !isTok(ua[i]) {
			i++
		}
		start := i
		for i < len(ua) && isTok(ua[i]) {
			i++
		}
		if tok := ua[start:i]; tok != "" && !genericToken(tok) {
			out = append(out, tok)
		}
	}
	return out
}

// referenceDL is the textbook optimal-string-alignment recurrence with
// fresh rows, returning -1 once the distance must exceed maxDist.
func referenceDL(a, b string, maxDist int) int {
	la, lb := len(a), len(b)
	if abs(la-lb) > maxDist {
		return -1
	}
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			v := min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				v = min(v, prev2[j-2]+1)
			}
			cur[j] = v
			rowMin = min(rowMin, v)
		}
		if rowMin > maxDist {
			return -1
		}
		prev2, prev, cur = prev, cur, prev2
	}
	if d := prev[lb]; d <= maxDist {
		return d
	}
	return -1
}

// FuzzMatchVsReference runs the compiled matcher and referenceMatch in
// lockstep over the default registry. thousandths is FuzzyThreshold in
// units of 0.001.
func FuzzMatchVsReference(f *testing.F) {
	reg := DefaultRegistry()
	m := NewMatcher(reg)
	seeds := []string{
		"", " ", "\t\n", "Googlebot", "  Googlebot/2.1\r\n", "\v\fbingbot",
		"Mozilla/5.0 (compatible; Googelbot/2.1)",
		"Mozilla/5.0 (compatible; bytespidr/1.0)",
		"smrushbot/7~bl", "GPTBTO/1.0", "claudbot", "Amazonbott/0.1",
		"Mozilla/5.0 (compatible; Kangaroo Bot/1.0)",
		"Mozilla/5.0 (compatible; kangaroo  bot/1.0)",
		"Mozilla/5.0 (compatible; +http://YANDEX.COM/BOTS)",
		"yandex.com/bot", "Sogou Web Spider/4.0", "sidetrade-indexer-bot",
		"Mozilla/5.0 (compatible; \u212Aangaroobot/1.0)", // Kelvin sign lowers to 'k'
		"\u212Aangaroo bot", "G\u0130TBOT", "Googlebot-\u0130mage/1.0",
		"\u00a0Googlebot\u00a0", "\u3000gptbot", "\u0085Googelbot", "\xff\xfeGooglebot", "Googelbot\xc3",
		"Mozilla/5.0 (compatible; " + strings.Repeat("Googlebot-Imag", 5) + ")",
		strings.Repeat("ab", 40) + " " + strings.Repeat("x", 70),
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/121.0 Safari/537.36 Build/3.7.122",
		"Mozilla/5.0 (compatible; aiohttp/1.0; embedly/2.0)",
		"Mozilla/5.0 (compatible; Googelbot/2.1; Bingbto/2.0)",
	}
	for _, b := range reg.Bots() {
		seeds = append(seeds, b.UASample)
		for _, tok := range b.Tokens {
			if len(tok) > 2 {
				seeds = append(seeds, tok[:1]+tok[2:], tok[1:2]+tok[:1]+tok[2:], strings.ToUpper(tok)+"x/1")
			}
		}
	}
	for _, ua := range seeds {
		for _, th := range []uint16{0, 200, 500} {
			f.Add(ua, th)
		}
	}
	f.Add(strings.Repeat("zq", 35), uint16(4000)) // a 70-byte candidate within budget
	f.Fuzz(func(t *testing.T, ua string, thousandths uint16) {
		m.FuzzyThreshold = float64(thousandths) / 1000
		got, gok := m.Match(ua)
		want, wok := referenceMatch(reg, m.FuzzyThreshold, ua)
		if gok != wok || got != want {
			t.Fatalf("Match(%q) at threshold %v = %v,%v; reference %v,%v",
				ua, m.FuzzyThreshold, botName(got), gok, botName(want), wok)
		}
	})
}

func botName(b *Bot) string {
	if b == nil {
		return "<nil>"
	}
	return b.Name
}

// TestOSABitsMatchesDP pins the bit-parallel distance, and the DP
// fallback, to the reference recurrence over random strings from a small
// alphabet, where transpositions and repeats are common.
func TestOSABitsMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abcdAB"[rng.Intn(6)]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		a, b := word(1+rng.Intn(64)), strings.ToLower(word(rng.Intn(30)))
		if i%4 == 0 {
			a = word(1 + rng.Intn(8))
		}
		ix := compile(NewRegistry([]*Bot{{Name: "x", Tokens: []string{"abcd", b}}}))
		var peq [256]uint64
		for k := 0; k < len(a); k++ {
			peq[ix.class[a[k]]] |= 1 << k
		}
		cls := make([]uint8, len(b))
		for k := range cls {
			cls[k] = ix.class[b[k]]
		}
		want := referenceDL(strings.ToLower(a), b, 1<<20)
		if got := osaBits(&peq, len(a), cls); got != want {
			t.Fatalf("osaBits(%q, %q) = %d, want %d", a, b, got, want)
		}
		budget := rng.Intn(8)
		wantB := referenceDL(strings.ToLower(a), b, budget)
		if got := damerauLevenshtein(a, b, budget); got != wantB {
			t.Fatalf("damerauLevenshtein(%q, %q, %d) = %d, want %d", a, b, budget, got, wantB)
		}
	}
}
