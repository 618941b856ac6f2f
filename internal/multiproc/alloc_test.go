//go:build !race

// The race detector makes sync.Pool drop a share of its Puts, so pooled
// scratch is reallocated at random and allocation counts are only
// meaningful without it.

package multiproc

import "testing"

// TestHeteroPartitionAllocs pins the heap work of a warm HETERO-PART
// solve, averaged over the herd frames: the per-profile SubsetDPs, their
// scratch and their kept rows come from the core pool, so what is left is
// the solve's own bookkeeping — ownership lists, seeds, the accept-set
// solves and the Solution.
func TestHeteroPartitionAllocs(t *testing.T) {
	frames := herdFrames(t, 1)
	i := 0
	if avg := testing.AllocsPerRun(2*len(frames), func() {
		if _, err := (HeteroPartition{}).Solve(frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg > 100 {
		t.Errorf("%v allocs per warm herd solve, want ≤ 100", avg)
	}
}
