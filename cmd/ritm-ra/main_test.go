package main

import (
	"strings"
	"testing"
	"time"

	"ritm"
)

// TestBuildEdgeChain pins which -edge-chain values the RA accepts at the
// default ∆ = 10 s: positive TTLs whose sum stays below ∆. Each layer can
// serve one freshness statement for its whole TTL, so a longer chain could
// hand clients a statement older than the 2∆ they accept.
func TestBuildEdgeChain(t *testing.T) {
	const delta = 10 * time.Second
	tests := []struct {
		ttls   string
		errHas string // refused: the error names this
	}{
		{ttls: ""},
		{ttls: "9s"},
		{ttls: "2s,5s"},
		{ttls: " 1s , 2s , 3s "},
		{ttls: "5s,30s", errHas: "sum to 35s, not below ∆ = 10s"},
		{ttls: "5s,5s", errHas: "sum to 10s, not below ∆ = 10s"},
		{ttls: "10s", errHas: "sum to 10s"},
		{ttls: "2s,0s", errHas: "layer 1: TTL 0s must be positive"},
		{ttls: "-1s", errHas: "must be positive"},
		{ttls: "2s,soon", errHas: "edge-chain layer 1"},
	}
	for _, tt := range tests {
		t.Run(tt.ttls, func(t *testing.T) {
			base := ritm.NewDistributionPoint(nil)
			origin, err := buildEdgeChain(base, tt.ttls, delta)
			if tt.errHas != "" {
				if err == nil || !strings.Contains(err.Error(), tt.errHas) {
					t.Fatalf("err = %v, want one naming %q", err, tt.errHas)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, isEdge := origin.(*ritm.EdgeServer); isEdge != (tt.ttls != "") {
				t.Errorf("origin is a %T", origin)
			}
		})
	}
}
