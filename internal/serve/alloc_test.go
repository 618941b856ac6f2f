//go:build !race

// The race detector makes sync.Pool drop a share of its Puts, so pooled
// scratch is reallocated at random and allocation counts are only
// meaningful without it.

package serve

import (
	"context"
	"testing"
)

// TestColdMissAllocs pins the heap work of a DP cache miss: the solver's
// rows and evaluation context come from the core pools, so what is left
// is the request clone, the cache entry and the response. A miss records
// no DP table for later requests.
func TestColdMissAllocs(t *testing.T) {
	e := New(Config{})
	req := Request{Tasks: mustSet(5, 100), Proc: testProcs["ideal"], Solver: "DP"}
	ctx := context.Background()
	if avg := testing.AllocsPerRun(20, func() {
		e.Reset()
		if resp := e.Solve(ctx, req); resp.Err != nil || resp.CacheHit {
			t.Fatalf("cold miss: err %v, cache hit %v", resp.Err, resp.CacheHit)
		}
	}); avg > 20 {
		t.Errorf("%v allocs per cold miss, want ≤ 20", avg)
	}
}
