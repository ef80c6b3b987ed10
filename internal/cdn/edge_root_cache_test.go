package cdn

import (
	"sync"
	"testing"
	"time"

	"ritm/internal/dictionary"
)

// rootCountingOrigin wraps an Origin and counts LatestRoot calls.
type rootCountingOrigin struct {
	Origin
	mu    sync.Mutex
	roots int
}

func (c *rootCountingOrigin) LatestRoot(ca dictionary.CAID) (*dictionary.SignedRoot, error) {
	c.mu.Lock()
	c.roots++
	c.mu.Unlock()
	return c.Origin.LatestRoot(ca)
}

func (c *rootCountingOrigin) rootCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roots
}

// TestEdgeRootTTLCache pins that an edge keeps no root cache, whatever its
// pull TTL: every LatestRoot revalidates upstream, so equivocation monitors
// behind an edge always see the origin's current view, and a rotated root is
// served on the very next request.
func TestEdgeRootTTLCache(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 3)
	up := &rootCountingOrigin{Origin: tc.dp}
	edge := NewEdgeServer(up, time.Minute, tc.clock.now)

	for i := 0; i < 3; i++ {
		if _, err := edge.LatestRoot("CA1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := up.rootCalls(); got != 3 {
		t.Fatalf("every request must revalidate: %d upstream calls, want 3", got)
	}

	tc.revoke(t, 2)
	got, err := edge.LatestRoot("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 5 {
		t.Fatalf("edge served a stale root (N=%d, want 5)", got.N)
	}
}

// TestEdgeRootAllocs pins the edge root path at zero allocations: a
// LatestRoot through a regional edge over a distribution point, and through
// a PoP edge over that regional, forwards the origin's *SignedRoot and
// allocates nothing on the way.
func TestEdgeRootAllocs(t *testing.T) {
	tc := newTestCA(t, "CA1")
	tc.revoke(t, 3)
	regional := NewEdgeServer(tc.dp, time.Minute, tc.clock.now)
	pop := NewEdgeServer(regional, time.Minute, tc.clock.now)
	for _, tier := range []struct {
		name string
		edge *EdgeServer
	}{{"regional", regional}, {"pop", pop}} {
		latest := func() {
			if _, err := tier.edge.LatestRoot("CA1"); err != nil {
				t.Fatal(err)
			}
		}
		latest()
		if allocs := testing.AllocsPerRun(500, latest); allocs != 0 {
			t.Errorf("%s edge LatestRoot: %.1f allocs/op, want 0", tier.name, allocs)
		}
	}
}
