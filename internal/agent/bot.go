package agent

import (
	"sort"
	"strings"
)

// Bot is the identity record for one known web bot.
type Bot struct {
	// Name is the canonical display name ("Googlebot", "GPTBot").
	Name string
	// Sponsor is the operating entity ("Google", "OpenAI", "Open Source").
	Sponsor string
	// Category is the Dark Visitors category.
	Category Category
	// Promise is the operator's public robots.txt stance.
	Promise Promise
	// Tokens are lower-cased product tokens whose presence in a UA string
	// identifies this bot. The first token is the primary one.
	Tokens []string
	// UASample is a representative full User-Agent header for the bot,
	// used by the traffic synthesizer and live crawler fleet.
	UASample string
}

// PrimaryToken returns the bot's main product token (lower case).
func (b *Bot) PrimaryToken() string {
	if len(b.Tokens) == 0 {
		return strings.ToLower(b.Name)
	}
	return b.Tokens[0]
}

// Registry is a lookup structure over a set of known bots.
// The zero value is empty; use NewRegistry or DefaultRegistry.
type Registry struct {
	bots    []*Bot
	byToken map[string]*Bot
	byName  map[string]*Bot
	// tokens lists every key of byToken once, in the order it was first
	// registered. It is the matcher's tie order ("registry order").
	tokens []string
	// gen counts Add calls, so a Matcher can tell that its compiled index
	// is stale.
	gen uint64
}

// NewRegistry builds a registry from the given bots. Later bots win token
// collisions, allowing callers to override defaults.
func NewRegistry(bots []*Bot) *Registry {
	r := &Registry{
		byToken: make(map[string]*Bot, len(bots)*2),
		byName:  make(map[string]*Bot, len(bots)),
		tokens:  make([]string, 0, len(bots)*2),
	}
	for _, b := range bots {
		r.Add(b)
	}
	return r
}

// Add registers a bot, overriding any previous bot with colliding tokens.
// A token keeps the registry-order position of its first registration; only
// its owner changes.
func (r *Registry) Add(b *Bot) {
	if r.byToken == nil {
		r.byToken = make(map[string]*Bot)
		r.byName = make(map[string]*Bot)
	}
	r.bots = append(r.bots, b)
	r.byName[strings.ToLower(b.Name)] = b
	for _, t := range b.Tokens {
		t = strings.ToLower(t)
		if _, seen := r.byToken[t]; !seen {
			r.tokens = append(r.tokens, t)
		}
		r.byToken[t] = b
	}
	r.gen++
}

// Len returns the number of registered bots.
func (r *Registry) Len() int { return len(r.bots) }

// Bots returns all registered bots sorted by name. The slice is fresh; the
// *Bot values are shared.
func (r *Registry) Bots() []*Bot {
	out := make([]*Bot, len(r.bots))
	copy(out, r.bots)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName returns the bot with the given canonical name (case-insensitive).
func (r *Registry) ByName(name string) (*Bot, bool) {
	b, ok := r.byName[strings.ToLower(name)]
	return b, ok
}

// ByToken returns the bot owning the exact product token (case-insensitive).
func (r *Registry) ByToken(token string) (*Bot, bool) {
	b, ok := r.byToken[strings.ToLower(token)]
	return b, ok
}

// InCategory returns all bots of the given category, sorted by name.
func (r *Registry) InCategory(c Category) []*Bot {
	var out []*Bot
	for _, b := range r.bots {
		if b.Category == c {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
