package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

func TestPartitionWeightsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(100) + 1
		parts := rng.Intn(12) + 1
		weights := make([]int, n)
		for i := range weights {
			weights[i] = rng.Intn(1000)
		}
		starts := PartitionWeights(weights, parts)
		want := parts
		if want > n {
			want = n
		}
		if len(starts) != want {
			t.Fatalf("n=%d parts=%d: got %d segments, want %d", n, parts, len(starts), want)
		}
		if starts[0] != 0 {
			t.Fatalf("first segment starts at %d", starts[0])
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] <= starts[i-1] {
				t.Fatalf("empty or non-monotone segment: starts=%v", starts)
			}
		}
		if starts[len(starts)-1] >= n {
			t.Fatalf("last segment empty: starts=%v n=%d", starts, n)
		}
	}
}

func TestPartitionWeightsBalance(t *testing.T) {
	// Uniform weights must split near-evenly.
	weights := make([]int, 100)
	for i := range weights {
		weights[i] = 10
	}
	starts := PartitionWeights(weights, 4)
	if len(starts) != 4 {
		t.Fatalf("starts = %v", starts)
	}
	for i := 0; i < 4; i++ {
		hi := 100
		if i+1 < 4 {
			hi = starts[i+1]
		}
		if size := hi - starts[i]; size < 20 || size > 30 {
			t.Fatalf("uniform split uneven: starts=%v", starts)
		}
	}
	// One giant item must not drag its segment's neighbours along.
	skew := []int{1, 1, 1000, 1, 1, 1, 1, 1}
	starts = PartitionWeights(skew, 3)
	sums := segmentSums(skew, starts)
	if sums[0] > 1002 && len(sums) > 1 {
		t.Fatalf("giant item's segment absorbed neighbours: sums=%v starts=%v", sums, starts)
	}
}

func TestPartitionWeightsEdgeCases(t *testing.T) {
	if got := PartitionWeights(nil, 4); got != nil {
		t.Fatalf("empty input: %v", got)
	}
	if got := PartitionWeights([]int{5}, 4); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single item: %v", got)
	}
	if got := PartitionWeights([]int{1, 2, 3}, 0); len(got) != 1 {
		t.Fatalf("zero parts: %v", got)
	}
	// All-zero weights (empty bins cannot occur, but the function must
	// not divide by zero or loop).
	if got := PartitionWeights([]int{0, 0, 0, 0}, 2); len(got) != 2 {
		t.Fatalf("zero weights: %v", got)
	}
}

func segmentSums(weights []int, starts []int) []int {
	sums := make([]int, len(starts))
	for i := range starts {
		hi := len(weights)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		for j := starts[i]; j < hi; j++ {
			sums[i] += weights[j]
		}
	}
	return sums
}

func TestBinSegmentClaimAndSteal(t *testing.T) {
	var seg binSegment
	seg.bounds.Store(packRange(3, 10))
	if r := seg.remaining(); r != 7 {
		t.Fatalf("remaining = %d, want 7", r)
	}
	if lo, hi, ok := seg.take(1); !ok || lo != 3 || hi != 4 {
		t.Fatalf("take(1) = [%d,%d),%v", lo, hi, ok)
	}
	lo, hi, ok := seg.stealHalf()
	if !ok || lo != 7 || hi != 10 { // 6 left in [4,10): thief takes [7,10)
		t.Fatalf("stealHalf = [%d,%d),%v", lo, hi, ok)
	}
	// Owner keeps [4,7).
	for want := 4; want < 7; want++ {
		if lo, hi, ok := seg.take(1); !ok || lo != want || hi != want+1 {
			t.Fatalf("take(1) = [%d,%d),%v, want [%d,%d)", lo, hi, ok, want, want+1)
		}
	}
	if _, _, ok := seg.take(1); ok {
		t.Fatal("segment not exhausted")
	}
	// A segment with one remaining index is never stolen.
	seg.bounds.Store(packRange(0, 1))
	if _, _, ok := seg.stealHalf(); ok {
		t.Fatal("stole the owner's last bin")
	}
}

// TestSegmentsClaimEachIndexOnce hammers take/stealTree from many
// goroutines, under the one-level (nil) topology and a multi-level one,
// and verifies exactly-once claiming — the property the whole dispatch
// rests on.
func TestSegmentsClaimEachIndexOnce(t *testing.T) {
	const n = 10000
	const workers = 8
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1 + i%13
	}
	for _, spec := range []string{"flat", "8k:2,64k:4,1m:8"} {
		tree := buildBinTree(n, 1<<12, mustTopo(t, spec))
		asn := topoAssign(weights, workers, tree)
		segs := make([]binSegment, len(asn))
		for i, r := range asn {
			segs[i].bounds.Store(packRange(r.lo, r.hi))
		}
		claimed := make([]int32, n)
		ctrl := newRunControl(context.Background())
		var wg sync.WaitGroup
		for w := 0; w < len(segs); w++ {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				for {
					if lo, hi, ok := segs[self].take(stealChunk); ok {
						for i := lo; i < hi; i++ {
							claimed[i]++
						}
						continue
					}
					if _, _, ok := stealTree(segs, self, workers, tree, ctrl); !ok {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for i, c := range claimed {
			if c != 1 {
				t.Fatalf("topology=%s: index %d claimed %d times", spec, i, c)
			}
		}
	}
}
