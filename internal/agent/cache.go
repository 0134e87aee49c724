package agent

import (
	"sync"
	"sync/atomic"
)

// CachedMatcher memoizes Match results by exact raw User-Agent string. A
// production log stream repeats a few thousand distinct user agents across
// millions of records, while a single Match pays an automaton pass over
// the UA and, on a miss, a fuzzy pass — so the streaming enrichment path
// caches the verdicts. Matching is a pure function of the UA string (ties
// follow the Matcher's total order), so caching never changes results.
//
// CachedMatcher is safe for concurrent use; the streaming pipeline's shard
// workers share one. Growth is capped: past MaxEntries new verdicts are
// computed but not stored, so an adversarial stream of unique user agents
// degrades to uncached cost instead of unbounded memory.
type CachedMatcher struct {
	m     *Matcher
	cache sync.Map // raw UA string -> cachedVerdict
	size  atomic.Int64
	max   int64
}

// cachedVerdict is one memoized Match result.
type cachedVerdict struct {
	bot *Bot
	ok  bool
}

// DefaultCacheEntries caps a CachedMatcher built by NewCachedMatcher.
const DefaultCacheEntries = 1 << 16

// NewCachedMatcher wraps m (nil means NewMatcher(nil)) with a concurrent
// memo capped at DefaultCacheEntries distinct user agents.
func NewCachedMatcher(m *Matcher) *CachedMatcher {
	if m == nil {
		m = NewMatcher(nil)
	}
	return &CachedMatcher{m: m, max: DefaultCacheEntries}
}

// Matcher returns the underlying matcher.
func (c *CachedMatcher) Matcher() *Matcher { return c.m }

// Match resolves a raw User-Agent header exactly like Matcher.Match,
// memoized.
func (c *CachedMatcher) Match(userAgent string) (*Bot, bool) {
	if v, hit := c.cache.Load(userAgent); hit {
		cv := v.(cachedVerdict)
		return cv.bot, cv.ok
	}
	bot, ok := c.m.Match(userAgent)
	if c.size.Load() < c.max {
		if _, loaded := c.cache.LoadOrStore(userAgent, cachedVerdict{bot: bot, ok: ok}); !loaded {
			c.size.Add(1)
		}
	}
	return bot, ok
}

// Size reports how many distinct user agents are currently memoized.
func (c *CachedMatcher) Size() int { return int(c.size.Load()) }
