package interception

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
)

// BypassList is the set of hosts the interceptor never bumps: matching
// connections are spliced verbatim, so the client sees the upstream's real
// certificate (pinned apps, mutual-TLS endpoints, anything the deployment
// must not terminate). Matching is ASCII case-insensitive.
//
// Entry forms:
//
//	example.com      exact host
//	.example.com     example.com and every subdomain
//	*.example.com    same as .example.com
//
// Safe for concurrent use; Add may race with matching (a reload while
// serving).
type BypassList struct {
	mu       sync.RWMutex
	exact    map[string]struct{}
	suffixes []string // each begins with '.', matches itself minus the dot too
}

// NewBypassList builds a list from the given entries.
func NewBypassList(entries ...string) *BypassList {
	b := &BypassList{exact: make(map[string]struct{})}
	for _, e := range entries {
		b.Add(e)
	}
	return b
}

// Add inserts one entry (see the entry forms above). Empty strings are
// ignored.
func (b *BypassList) Add(entry string) {
	entry = strings.ToLower(strings.TrimSpace(entry))
	entry = strings.TrimPrefix(entry, "*")
	if entry == "" || entry == "." {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if strings.HasPrefix(entry, ".") {
		b.suffixes = append(b.suffixes, entry)
		return
	}
	b.exact[entry] = struct{}{}
}

// MatchBytes reports whether the SNI host hits the list, without
// allocating: the lookup key is lowercased in a stack buffer and
// map-indexed via the compiler's string(b) lookup optimization. It sits on
// the per-ClientHello path.
func (b *BypassList) MatchBytes(host []byte) bool {
	if len(host) == 0 {
		return false
	}
	var stack [256]byte
	var lower []byte
	if len(host) <= len(stack) {
		lower = stack[:len(host)]
	} else {
		lower = make([]byte, len(host))
	}
	for i, c := range host {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower[i] = c
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if _, ok := b.exact[string(lower)]; ok {
		return true
	}
	for _, suf := range b.suffixes {
		// ".example.com" matches "example.com" itself and "a.example.com".
		if len(lower) == len(suf)-1 && string(lower) == suf[1:] {
			return true
		}
		if len(lower) > len(suf) && string(lower[len(lower)-len(suf):]) == suf {
			return true
		}
	}
	return false
}

// LoadBypassFile reads a bypass list from path: one entry per line, blank
// lines and #-comments ignored. This is the `ritm-ra -bypass-file` format.
func LoadBypassFile(path string) (*BypassList, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("interception: bypass file: %w", err)
	}
	defer f.Close()
	b := NewBypassList()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		b.Add(line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("interception: bypass file %s: %w", path, err)
	}
	return b, nil
}
