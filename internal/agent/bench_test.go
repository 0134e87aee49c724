package agent

import (
	"fmt"
	"testing"
)

var benchUAs = []string{
	"Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
	"Mozilla/5.0 AppleWebKit/537.36 (KHTML, like Gecko; compatible; GPTBot/1.2)",
	"python-requests/2.31.0",
	"Mozilla/5.0 (Windows NT 10.0; Win64; x64) Chrome/121.0 Safari/537.36",
	"Scrapy/2.11.0 (+https://scrapy.org)",
	"Mozilla/5.0 (compatible; SemrushBot/7~bl; +http://www.semrush.com/bot.html)",
}

func BenchmarkMatchKnown(b *testing.B) {
	m := NewMatcher(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Match(benchUAs[i%len(benchUAs)])
	}
}

func BenchmarkMatchAnonymousWorstCase(b *testing.B) {
	// Anonymous browser UA falls through exact matching into the fuzzy
	// stage — the slowest path.
	m := NewMatcher(nil)
	ua := "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/120.0 Safari/537.36"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Match(ua)
	}
}

func BenchmarkDamerauLevenshtein(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		damerauLevenshtein("googlebot-image", "googelbot-image", 3)
	}
}

// BenchmarkMatchMiss prices the uncached miss path on a bare Matcher:
// 1,200 distinct browser UAs shaped like the synthetic generator's
// anonymous visitors (a browser template plus a varied build token), none
// of which any bot token or fuzzy comparison claims.
func BenchmarkMatchMiss(b *testing.B) {
	templates := []string{
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/121.0 Safari/537.36",
		"Mozilla/5.0 (Macintosh; Intel Mac OS X 14_2) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/17.2 Safari/605.1.15",
		"Mozilla/5.0 (X11; Linux x86_64; rv:122.0) Gecko/20100101 Firefox/122.0",
		"Mozilla/5.0 (iPhone; CPU iPhone OS 17_2 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Mobile/15E148",
		"Mozilla/5.0 (Linux; Android 14; Pixel 8) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/121.0 Mobile Safari/537.36",
		"Mozilla/5.0 (Windows NT 11.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Edge/120.0 Safari/537.36",
	}
	var uas []string
	for i := 0; i < 1200; i++ {
		uas = append(uas, fmt.Sprintf("%s Build/%d.%d.%d", templates[i%len(templates)], 1+i%9, i/9%20, i*7%400))
	}
	m := NewMatcher(nil)
	for _, ua := range uas {
		if bot, ok := m.Match(ua); ok {
			b.Fatalf("%q matched %s", ua, bot.Name)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(uas[i%len(uas)])
	}
}
