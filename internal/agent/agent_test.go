package agent

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultRegistryWellFormed(t *testing.T) {
	r := DefaultRegistry()
	if r.Len() < 70 {
		t.Fatalf("registry has %d bots, want >= 70", r.Len())
	}
	seen := make(map[string]bool)
	for _, b := range r.Bots() {
		if b.Name == "" || b.Sponsor == "" {
			t.Errorf("bot %+v missing name or sponsor", b)
		}
		if b.Category == CategoryUnknown {
			t.Errorf("bot %s has unknown category", b.Name)
		}
		if len(b.Tokens) == 0 {
			t.Errorf("bot %s has no tokens", b.Name)
		}
		if b.UASample == "" {
			t.Errorf("bot %s has no UA sample", b.Name)
		}
		if seen[b.Name] {
			t.Errorf("duplicate bot name %s", b.Name)
		}
		seen[b.Name] = true
		for _, tok := range b.Tokens {
			if tok != strings.ToLower(tok) {
				t.Errorf("bot %s token %q is not lower case", b.Name, tok)
			}
		}
	}
}

func TestPaperBotsPresent(t *testing.T) {
	// Every bot named in the paper's Tables 3, 6, 7, 8 must resolve.
	names := []string{
		"YisouSpider", "Applebot", "Baiduspider", "bingbot",
		"meta-externalagent", "Googlebot", "HeadlessChrome", "ChatGPT-User",
		"SemrushBot", "GPTBot", "Dotbot", "Amazonbot", "AhrefsBot",
		"SkypeUriPreview", "facebookexternalhit", "BrightEdge Crawler",
		"Scrapy", "ClaudeBot", "Bytespider", "AcademicBotRTU",
		"Apache-HttpClient", "Axios", "Coccoc", "DataForSEOBot",
		"Go-http-client", "Iframely", "MicrosoftPreview", "PerplexityBot",
		"PetalBot", "Python-requests", "SemanticScholarBot", "SeznamBot",
		"Slack-ImgProxy", "Yandexbot", "DuckDuckBot", "Googlebot-Image",
		"AdsBot-Google", "Twitterbot", "Snap URL Preview Service",
		"Slurp", "DuckAssistBot", "ia_archiver", "okhttp", "aiohttp",
	}
	r := DefaultRegistry()
	for _, n := range names {
		if _, ok := r.ByName(n); !ok {
			t.Errorf("paper bot %q missing from registry", n)
		}
	}
}

func TestMatcherExactSamples(t *testing.T) {
	m := NewMatcher(nil)
	for _, b := range m.Registry().Bots() {
		got, ok := m.Match(b.UASample)
		if !ok {
			t.Errorf("UA sample for %s did not match any bot: %q", b.Name, b.UASample)
			continue
		}
		// A sample may legitimately resolve to a sibling with a longer
		// token (e.g. LinkedInBot's sample embeds Apache-HttpClient), so
		// just require a confident identification of either the bot itself
		// or a bot whose token appears in the sample.
		if got.Name != b.Name && !strings.Contains(strings.ToLower(b.UASample), got.Tokens[0]) {
			t.Errorf("UA sample for %s matched %s", b.Name, got.Name)
		}
	}
}

func TestMatcherKnownStrings(t *testing.T) {
	m := NewMatcher(nil)
	cases := []struct{ ua, want string }{
		{"Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)", "Googlebot"},
		{"Googlebot-Image/1.0", "Googlebot-Image"},
		{"Mozilla/5.0 AppleWebKit/537.36 (KHTML, like Gecko; compatible; GPTBot/1.2)", "GPTBot"},
		{"python-requests/2.28.1", "Python-requests"},
		{"Mozilla/5.0 (X11; Linux x86_64) HeadlessChrome/119.0.0.0", "HeadlessChrome"},
		{"Scrapy/2.5.1 (+https://scrapy.org)", "Scrapy"},
		{"Mozilla/5.0 (compatible; YandexBot/3.0; +http://yandex.com/bots)", "Yandexbot"},
	}
	for _, c := range cases {
		if got := m.Name(c.ua); got != c.want {
			t.Errorf("Name(%q) = %q, want %q", c.ua, got, c.want)
		}
	}
}

func TestMatcherAnonymous(t *testing.T) {
	m := NewMatcher(nil)
	anon := []string{
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/120.0 Safari/537.36",
		"",
		"CompletelyNovelAgent/9.9",
	}
	for _, ua := range anon {
		if b, ok := m.Match(ua); ok {
			t.Errorf("UA %q unexpectedly matched %s", ua, b.Name)
		}
	}
}

func TestMatcherFuzzy(t *testing.T) {
	m := NewMatcher(nil)
	cases := []struct{ ua, want string }{
		{"Mozilla/5.0 (compatible; Googelbot/2.1)", "Googlebot"}, // transposition
		{"Mozilla/5.0 (compatible; bytespidr/1.0)", "Bytespider"},
		{"smrushbot/7~bl", "SemrushBot"},
	}
	for _, c := range cases {
		if got := m.Name(c.ua); got != c.want {
			t.Errorf("fuzzy Name(%q) = %q, want %q", c.ua, got, c.want)
		}
	}
}

func TestFuzzyDisabled(t *testing.T) {
	m := NewMatcher(nil)
	const typo = "Mozilla/5.0 (compatible; Googelbot/2.1)"
	if got := m.Name(typo); got != "Googlebot" {
		t.Fatalf("fuzzy Name(%q) = %q, want Googlebot", typo, got)
	}
	// The threshold is read on every call, not frozen into the compiled
	// registry by the first one.
	m.FuzzyThreshold = 0
	if _, ok := m.Match(typo); ok {
		t.Error("fuzzy matching should be off when threshold is zero")
	}
}

// TestRegistryAddAfterMatch checks that a registry change made after the
// matcher has compiled its index takes effect on the next call, both for a
// new token and for a token whose owner changes.
func TestRegistryAddAfterMatch(t *testing.T) {
	m := NewMatcher(nil)
	if _, ok := m.Match("FooCrawler/1.0"); ok {
		t.Fatal("FooCrawler matched before it was registered")
	}
	m.Registry().Add(&Bot{Name: "FooCrawler", Sponsor: "x", Category: CategoryScraper, Tokens: []string{"FooCrawler"}})
	if got := m.Name("FooCrawler/1.0"); got != "FooCrawler" {
		t.Errorf("after Add, Name = %q, want FooCrawler", got)
	}
	m.Registry().Add(&Bot{Name: "NotGoogle", Sponsor: "x", Category: CategoryScraper, Tokens: []string{"googlebot"}})
	if got := m.Name("Googlebot/2.1"); got != "NotGoogle" {
		t.Errorf("after an overriding Add, Name = %q, want NotGoogle", got)
	}
}

// TestMatchAllocs pins the compiled matcher's allocation-free hot path: an
// ASCII UA allocates nothing, whether it hits a token, hits fuzzily or
// misses both stages.
func TestMatchAllocs(t *testing.T) {
	m := NewMatcher(nil)
	for _, ua := range []string{
		"Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
		"Mozilla/5.0 (compatible; Googelbot/2.1)",
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/120.0 Safari/537.36 Build/3.7.122",
		"  CompletelyNovelAgent/9.9  ",
	} {
		m.Match(ua) // compile the index
		if avg := testing.AllocsPerRun(100, func() { m.Match(ua) }); avg != 0 {
			t.Errorf("Match(%q) allocates %.1f times per call, want 0", ua, avg)
		}
	}
}

// TestTieOrderSubstring builds a UA from every pair of equal-length
// registry tokens, in both orders, and requires every fresh matcher to give
// the one verdict the tie order names: the token registered first, unless
// the UA also holds a longer token.
func TestTieOrderSubstring(t *testing.T) {
	reg := DefaultRegistry()
	type tie struct{ ua, want string }
	var ties []tie
	pairs := 0
	for i, a := range reg.tokens {
		for _, b := range reg.tokens[i+1:] {
			if len(a) != len(b) {
				continue
			}
			pairs++
			for _, ua := range []string{
				"Mozilla/5.0 (compatible; " + a + "/1.0; " + b + "/2.0)",
				"Mozilla/5.0 (compatible; " + b + "/1.0; " + a + "/2.0)",
			} {
				want, wantLen := reg.byToken[a].Name, len(a)
				for _, c := range reg.tokens {
					if len(c) > wantLen && strings.Contains(strings.ToLower(ua), c) {
						want, wantLen = reg.byToken[c].Name, len(c)
					}
				}
				ties = append(ties, tie{ua, want})
			}
		}
	}
	if pairs == 0 {
		t.Fatal("the default registry has no equal-length token pairs")
	}
	t.Logf("%d equal-length token pairs", pairs)
	for k := 0; k < 50; k++ {
		m := NewMatcher(nil)
		for _, c := range ties {
			if got := m.Name(c.ua); got != c.want {
				t.Fatalf("matcher %d: Name(%q) = %q, want %q", k, c.ua, got, c.want)
			}
		}
	}
}

// TestTieOrderFuzzy requires fuzzy ties to resolve by the tie order on
// every fresh matcher: lowest distance, then the earliest candidate in the
// UA, then the token registered first. The single-candidate ties are found
// by brute force over one-edit variants of the default tokens; the
// custom registry makes a tie at distance 1 in both registration orders.
func TestTieOrderFuzzy(t *testing.T) {
	reg := DefaultRegistry()
	type tie struct{ ua, want string }
	var ties []tie
	for _, tok := range reg.tokens {
		for p := 0; p+1 < len(tok); p++ {
			for _, v := range []string{
				tok[:p] + tok[p+1:],                             // deletion
				tok[:p] + tok[p+1:p+2] + tok[p:p+1] + tok[p+2:], // transposition
			} {
				ua := "Mozilla/5.0 (compatible; " + v + "/1.0)"
				if cands := referenceTokens(v); len(cands) != 1 || cands[0] != v || len(v) < 4 {
					continue // v must be the UA's only fuzzy candidate
				}
				if _, hit := referenceMatch(reg, 0, ua); hit {
					continue
				}
				best, bestDist, tied := "", 1<<30, 0
				for _, c := range reg.tokens {
					budget := int(0.2 * float64(len(c)))
					if len(c) < 4 || budget == 0 {
						continue
					}
					switch d := referenceDL(v, c, budget); {
					case d < 0:
					case d < bestDist:
						best, bestDist, tied = reg.byToken[c].Name, d, 1
					case d == bestDist:
						tied++
					}
				}
				if tied > 1 {
					ties = append(ties, tie{ua, best})
				}
			}
		}
	}
	t.Logf("%d single-candidate fuzzy ties in the default registry", len(ties))
	ties = append(ties,
		tie{"Mozilla/5.0 (compatible; Googelbot/2.1; Bingbto/2.0)", "Googlebot"},
		tie{"Mozilla/5.0 (compatible; Bingbto/2.0; Googelbot/2.1)", "bingbot"},
	)
	for k := 0; k < 50; k++ {
		m := NewMatcher(nil)
		for _, c := range ties {
			if got := m.Name(c.ua); got != c.want {
				t.Fatalf("matcher %d: Name(%q) = %q, want %q", k, c.ua, got, c.want)
			}
		}
	}

	alpha := &Bot{Name: "alphabot", Tokens: []string{"alphabot"}}
	cat := &Bot{Name: "alphacat", Tokens: []string{"alphacat"}}
	for _, order := range [][]*Bot{{alpha, cat}, {cat, alpha}} {
		for k := 0; k < 50; k++ {
			m := NewMatcher(NewRegistry(order))
			if got := m.Name("Alphacot/1.0"); got != order[0].Name {
				t.Fatalf("registration order %s first: Name = %q", order[0].Name, got)
			}
		}
	}
}

func TestLongestTokenWins(t *testing.T) {
	m := NewMatcher(nil)
	// "googlebot-image" contains "googlebot"; the longer token must win.
	if got := m.Name("Googlebot-Image/1.0"); got != "Googlebot-Image" {
		t.Errorf("got %q, want Googlebot-Image", got)
	}
}

func TestDamerauLevenshtein(t *testing.T) {
	cases := []struct {
		a, b      string
		max, want int
	}{
		{"abc", "abc", 2, 0},
		{"abc", "abd", 2, 1},
		{"abc", "acb", 2, 1}, // transposition
		{"abc", "xyz", 3, 3},
		{"abc", "xyz", 2, -1}, // exceeds budget
		{"", "ab", 2, 2},
		{"googlebot", "googelbot", 2, 1},
		{"kitten", "sitting", 3, 3},
	}
	for _, c := range cases {
		if got := damerauLevenshtein(c.a, c.b, c.max); got != c.want {
			t.Errorf("dl(%q,%q,%d) = %d, want %d", c.a, c.b, c.max, got, c.want)
		}
	}
}

func TestQuickDLSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		const budget = 60
		return damerauLevenshtein(a, b, budget) == damerauLevenshtein(b, a, budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickDLIdentityZero(t *testing.T) {
	f := func(a string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		return damerauLevenshtein(a, a, 1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDLTriangleInequality(t *testing.T) {
	f := func(a, b, c string) bool {
		trim := func(s string) string {
			if len(s) > 15 {
				return s[:15]
			}
			return s
		}
		a, b, c = trim(a), trim(b), trim(c)
		const budget = 64
		ab := damerauLevenshtein(a, b, budget)
		bc := damerauLevenshtein(b, c, budget)
		ac := damerauLevenshtein(a, c, budget)
		// OSA distance violates the triangle inequality only in contrived
		// cases involving overlapping transpositions; allow a slack of 1 to
		// keep the property meaningful without chasing those corner cases.
		return ac <= ab+bc+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCategoryRoundTrip(t *testing.T) {
	for _, c := range Categories() {
		parsed, ok := ParseCategory(c.String())
		if !ok || parsed != c {
			t.Errorf("ParseCategory(%q) = %v,%v", c.String(), parsed, ok)
		}
	}
	if _, ok := ParseCategory("Martian Bots"); ok {
		t.Error("nonsense category must not parse")
	}
}

func TestCategoryAliases(t *testing.T) {
	cases := map[string]Category{
		"AI Search":        CategoryAISearchCrawler,
		"AI Data Scraper":  CategoryAIDataScraper,
		"Search Engine":    CategorySearchEngineCrawler,
		"SEO":              CategorySEOCrawler,
		"Other":            CategoryUncategorized,
		"Fetcher":          CategoryFetcher,
		"Headless Browser": CategoryHeadlessBrowser,
		"AI Assistant":     CategoryAIAssistant,
	}
	for alias, want := range cases {
		got, ok := ParseCategory(alias)
		if !ok || got != want {
			t.Errorf("ParseCategory(%q) = %v,%v want %v", alias, got, ok, want)
		}
	}
}

func TestInCategory(t *testing.T) {
	r := DefaultRegistry()
	seo := r.InCategory(CategorySEOCrawler)
	if len(seo) < 5 {
		t.Errorf("expected >=5 SEO crawlers, got %d", len(seo))
	}
	for _, b := range seo {
		if b.Category != CategorySEOCrawler {
			t.Errorf("bot %s leaked into SEO category", b.Name)
		}
	}
}

func TestRegistryOverride(t *testing.T) {
	r := NewRegistry([]*Bot{
		{Name: "A", Sponsor: "x", Category: CategoryScraper, Tokens: []string{"tok"}},
		{Name: "B", Sponsor: "y", Category: CategoryFetcher, Tokens: []string{"tok"}},
	})
	b, ok := r.ByToken("tok")
	if !ok || b.Name != "B" {
		t.Errorf("later registration should win token collision, got %v", b)
	}
}

func TestPromiseString(t *testing.T) {
	if PromiseYes.String() != "Yes" || PromiseNo.String() != "No" || PromiseUnknown.String() != "Unknown" {
		t.Error("promise rendering drifted from Table 6 vocabulary")
	}
}

func TestPrimaryToken(t *testing.T) {
	b := &Bot{Name: "Foo", Tokens: []string{"foo", "foo-bot"}}
	if b.PrimaryToken() != "foo" {
		t.Error("primary token should be first")
	}
	empty := &Bot{Name: "Bare"}
	if empty.PrimaryToken() != "bare" {
		t.Error("fallback primary token should be lower-cased name")
	}
}
