package interception

import (
	"os"
	"path/filepath"
	"testing"
)

func TestBypassListForms(t *testing.T) {
	b := NewBypassList("Example.com", ".suffix.net", "*.wild.org", "  spaced.io  ", "", ".")
	cases := []struct {
		host string
		want bool
	}{
		{"example.com", true},
		{"EXAMPLE.COM", true},
		{"www.example.com", false}, // exact entries do not match subdomains
		{"suffix.net", true},       // '.'-entries match the bare domain…
		{"a.suffix.net", true},     // …and every subdomain
		{"deep.a.suffix.net", true},
		{"notsuffix.net", false}, // no partial-label matches
		{"wild.org", true},       // '*.x' normalizes to '.x'
		{"cdn.wild.org", true},
		{"spaced.io", true},
		{"", false},
		{"unrelated.test", false},
	}
	for _, tc := range cases {
		if got := b.MatchBytes([]byte(tc.host)); got != tc.want {
			t.Errorf("Match(%q) = %v, want %v", tc.host, got, tc.want)
		}
	}
	if n := len(b.exact) + len(b.suffixes); n != 4 {
		t.Fatalf("entries = %d, want 4 (empty entries dropped)", n)
	}
}

func TestLoadBypassFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bypass.txt")
	content := "# full-line comment\n\nbank.example   # pinned app\n.intra.corp\n*.mtls.example\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBypassFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"bank.example", "intra.corp", "x.intra.corp", "a.mtls.example"} {
		if !b.MatchBytes([]byte(host)) {
			t.Errorf("Match(%q) = false after load", host)
		}
	}
	if b.MatchBytes([]byte("comment")) || b.MatchBytes([]byte("pinned")) {
		t.Fatal("comment text leaked into the list")
	}
	if _, err := LoadBypassFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file did not error")
	}
}
