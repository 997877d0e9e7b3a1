// Package core implements the paper's primary contribution: a user-level,
// run-to-completion, fine-grained thread package whose scheduler orders
// thread execution for second-level cache locality using per-thread
// address hints (§2–§3 of the paper).
//
// A thread is a function pointer plus two integer arguments and up to
// three address hints. At fork time the hints are mapped, block-wise, into
// a bin: the hint space is divided into k-dimensional blocks whose
// per-dimension size is at most 1/k of the cache size, so the union of the
// data touched by threads sharing a block fits in the cache. Bins are
// organized in a hash table (shift-and-mask per dimension, chaining for
// collisions) and linked onto a ready list in allocation order. Run walks
// the ready list, executing every thread of one bin before moving to the
// next, which is what converts hint locality into temporal locality.
//
// The package mirrors the paper's three-call interface —
// th_init/th_fork/th_run — as Scheduler.Init, Scheduler.Fork, and
// Scheduler.Run, and keeps the paper's low-overhead design: thread records
// live in batched thread groups recycled through free lists, so a fork is
// a hash, a couple of pointer moves, and three word stores.
//
// Beyond the paper's implementation it also provides, as clearly marked
// extensions used by the ablation experiments: alternative bin tour orders
// (Morton and Hilbert space-filling curves instead of allocation order),
// optional symmetric hint folding (§2.3's "reduce the number of bins by
// 50%"), and parallel bin execution across workers (the symmetric
// multiprocessor extension the paper's §7 leaves as future work).
//
// # Parallel fork and run
//
// Two Config switches extend the §7 SMP conjecture from "run bins in
// parallel" to a fully parallel fork → run pipeline:
//
//   - ParallelFork shards the fork-side state — hash-cell collision
//     chains, ready lists, free lists, and the pending/forked counters —
//     into lock stripes so N goroutines can Fork concurrently with
//     near-linear throughput. Each hash cell belongs to exactly one
//     stripe; a fork locks only the stripe owning its bin's cell.
//   - Workers > 1 makes Run execute bins in parallel. The dispatcher
//     partitions the bin tour into contiguous segments, one per worker,
//     weighted by per-bin thread count, so spatially adjacent bins (which
//     the Morton/Hilbert tours deliberately place next to each other, and
//     which therefore share cache lines) stay on one worker's cache. Idle
//     workers rebalance by stealing the upper half of the largest
//     remaining segment — stolen work is itself a contiguous tour run.
//     DispatchAtomic restores the legacy one-bin-at-a-time atomic-counter
//     dispatch as a comparison baseline.
//   - Topology layers a cache hierarchy over the segmented dispatch: the
//     tour groups into nested bubbles sized to each cache level (L1 → L2
//     → LLC), worker clusters sharing a cache walk whole subtrees, and
//     steals pick victims by cache distance — narrow chunks from cluster
//     siblings, whole subtrees across the outermost level. See
//     topology.go, tree.go, and tree_dispatch.go.
//
// Run's worker goroutines persist in a pool across Run calls (amortizing
// spawn cost for keep=true re-runs); Close releases them. The bin tour is
// memoized between runs and recomputed only when a new bin was allocated.
//
// # Thread-safety contract
//
// The zero configuration is the paper's sequential-program facility:
// nothing may be called concurrently. Each mode widens that precisely:
//
//   - ParallelFork permits concurrent Fork calls (and concurrent
//     Stats/Pending/BinOccupancy readers) between runs. It does NOT
//     permit Fork concurrently with Run: forkers must synchronize with
//     the goroutine calling Run (e.g. sync.WaitGroup) before it starts.
//     Fork panics if it observes a Run in progress.
//   - Workers > 1 runs thread bodies concurrently with each other (every
//     bin still executes entirely on one worker), so bodies must be safe
//     to run in parallel. Run itself must still be called from one
//     goroutine at a time.
//   - RunEach is always sequential regardless of Workers.
package core

import (
	"fmt"
	"math/bits"
	"runtime"

	"threadsched/internal/obs"
)

// Func is the thread body: the paper's f(arg1, arg2).
type Func func(arg1, arg2 int)

// MaxHints is the number of address hints a thread may carry. The paper's
// package implements the three-dimensional case (§3); unused hints are
// passed as zero, exactly as in th_fork.
const MaxHints = 3

// TourOrder selects the order in which Run visits non-empty bins.
type TourOrder int

const (
	// TourAllocation visits bins in the order they were first used — the
	// paper's ready-list order.
	TourAllocation TourOrder = iota
	// TourMorton visits bins in Morton (Z-order) of their block
	// coordinates; an ablation of §2.3's "traversing the bins along some
	// path, preferably the shortest one".
	TourMorton
	// TourHilbert visits bins along a 3-D Hilbert curve over their block
	// coordinates, the shortest-tour heuristic among the three.
	TourHilbert
)

// String names the tour order.
func (t TourOrder) String() string {
	switch t {
	case TourAllocation:
		return "allocation"
	case TourMorton:
		return "morton"
	case TourHilbert:
		return "hilbert"
	default:
		return fmt.Sprintf("TourOrder(%d)", int(t))
	}
}

// Dispatch selects how Run hands bins to workers when Workers > 1.
type Dispatch int

const (
	// DispatchSegmented partitions the bin tour into contiguous segments
	// weighted by thread count, one per worker, with chunked stealing
	// from the largest remaining segment — spatially adjacent bins stay
	// on one worker (the default).
	DispatchSegmented Dispatch = iota
	// DispatchAtomic is the legacy baseline: workers claim bins one at a
	// time from a shared atomic counter, interleaving tour neighbours
	// across workers.
	DispatchAtomic
)

// String names the dispatch policy.
func (d Dispatch) String() string {
	switch d {
	case DispatchSegmented:
		return "segmented"
	case DispatchAtomic:
		return "atomic"
	default:
		return fmt.Sprintf("Dispatch(%d)", int(d))
	}
}

// Defaults mirroring the C package's configuration-dependent defaults.
const (
	// DefaultHashDim is the default per-dimension size of the 3-D hash
	// table of bin pointers (DefaultHashDim³ cells total).
	DefaultHashDim = 16
	// DefaultGroupSize is the number of thread records per thread group;
	// grouping amortizes allocation and keeps fork overhead flat (§3.2).
	DefaultGroupSize = 256
)

// Config parameterizes a Scheduler. The zero value is usable once a cache
// size is known; call Init (th_init) to override block and hash sizes.
type Config struct {
	// CacheSize is the capacity in bytes of the cache being scheduled for
	// (the largest cache, per §2.3). It determines the default block
	// size. If zero, DefaultCacheSize is assumed.
	CacheSize uint64
	// BlockSize is the per-dimension block size in bytes; 0 selects the
	// default CacheSize/Dims rounded down to a power of two ("dimension
	// sizes … sum … the same as the second-level cache size", §3.2).
	// Non-power-of-two values are rounded down to a power of two so the
	// hint-to-block mapping stays a shift.
	BlockSize uint64
	// Dims is the number of hint dimensions used for the default block
	// size; 0 means MaxHints.
	Dims int
	// HashDim is the per-dimension hash table size (power of two); 0
	// selects DefaultHashDim.
	HashDim int
	// GroupSize is the thread-group capacity; 0 selects
	// DefaultGroupSize.
	GroupSize int
	// FoldSymmetric places threads with permuted hints — (hi, hj) and
	// (hj, hi) — in the same bin by sorting block coordinates (§2.3).
	FoldSymmetric bool
	// Tour selects the bin traversal order; the zero value is the
	// paper's allocation order.
	Tour TourOrder
	// Workers > 1 enables the SMP extension: bins are executed in
	// parallel by this many workers, each bin entirely on one worker.
	// Thread bodies must then be safe to run concurrently with each
	// other. 0 or 1 runs everything on the calling goroutine.
	Workers int
	// Dispatch selects the bin dispatch policy for Workers > 1; the zero
	// value is DispatchSegmented (contiguous weighted tour segments with
	// chunked stealing).
	Dispatch Dispatch
	// StealChunk bounds how many bins one segment claim (or one narrow
	// hierarchical steal) takes at a time; 0 selects DefaultStealChunk.
	// Smaller chunks expose more work to thieves, larger ones amortize the
	// per-claim atomic over longer contiguous runs.
	StealChunk int
	// Topology describes the cache hierarchy for hierarchical scheduling
	// (innermost level first; see Topology and ParseTopology). Nil — the
	// default — keeps the flat single-level dispatch. A non-nil topology
	// routes parallel runs through the bin tree: tour bins group into
	// nested bubbles sized to each cache level, initial worker segments
	// cut along subtree boundaries, and steals pick victims by cache
	// distance with a per-level width policy. A 1-level topology is the
	// flat dispatch expressed through the tree and behaves identically.
	// It does not shape DepScheduler dispatch: the dependence executor
	// has no per-batch partition to cut (see DepScheduler).
	Topology *Topology
	// CriticalPathFirst orders DepScheduler execution by longest remaining
	// dependence path (precomputed once per DAG) so chains drain before
	// leaves: the serial executor visits the tallest bins first each
	// round, the parallel one drains its ready set tallest-first. False —
	// the default — keeps the original fork/ID order.
	CriticalPathFirst bool
	// ParallelFork shards the fork-side state into lock stripes so Fork
	// may be called from many goroutines concurrently (see the package
	// doc's thread-safety contract). The serial fork path is unchanged
	// when false.
	ParallelFork bool
	// ForkShards is the lock-stripe count used when ParallelFork is set,
	// rounded up to a power of two; 0 selects a default derived from
	// GOMAXPROCS.
	ForkShards int
	// Obs attaches the observability layer: per-worker scheduler metrics
	// (steals, bins and threads per worker, segment drain times), worker
	// timeline spans, and pprof labels on the worker pool. Nil (the
	// default) disables all of it; the disabled path is a nil-check fast
	// path that performs no timing calls and no allocation.
	Obs *obs.Obs
}

// defaultForkShards sizes the lock striping at several stripes per
// processor, so concurrent forkers rarely contend on the same stripe.
func defaultForkShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256
	}
	return int(ceilPow2(uint64(n)))
}

// DefaultCacheSize is used when a Config specifies no cache size; it is
// the R8000's 2 MB second-level cache, the paper's primary machine.
const DefaultCacheSize = 2 << 20

// DefaultStealChunk is the default bound on bins claimed per segment
// take; small enough that a nearly-drained segment still exposes work to
// thieves, large enough to amortize the claim's CAS.
const DefaultStealChunk = 16

// DefaultBlockSize returns the default per-dimension block size for a
// cache of the given size scheduled over dims dimensions: the largest
// power of two not exceeding cacheSize/dims.
func DefaultBlockSize(cacheSize uint64, dims int) uint64 {
	if dims <= 0 {
		dims = MaxHints
	}
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	per := cacheSize / uint64(dims)
	if per == 0 {
		return 1
	}
	return floorPow2(per)
}

func floorPow2(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	return 1 << (63 - uint(bits.LeadingZeros64(v)))
}

func ceilPow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << uint(bits.Len64(v-1))
}
