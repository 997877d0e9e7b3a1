package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Cache-topology description for hierarchical scheduling. The paper's §7
// SMP extension schedules thread groups "at the cache level they fit";
// BubbleSched (Thibault et al.) generalizes that to a tree of nested
// caches with level-appropriate stealing. A Topology names the nesting —
// one TopoLevel per cache level, innermost (L1) first — and the bin tour
// is grouped into a matching tree of contiguous "bubbles" (see tree.go).
// A nil Topology, or one with a single level, is the one-level tree: the
// flat linear tour the package always had, dispatched by the same code.

// TopoLevel describes one cache level of a Topology.
type TopoLevel struct {
	// Capacity is the size in bytes of one cache instance at this level
	// (one L1, one L2 slice, ...). Capacities must strictly increase from
	// the innermost level outward.
	Capacity uint64
	// Workers is the number of Run workers sharing one cache instance at
	// this level (e.g. 2 hyperthreads per L1, 8 cores per LLC). Counts
	// must not decrease outward; the outermost level typically names the
	// whole machine.
	Workers int
}

// Topology is an immutable cache-hierarchy description, innermost level
// first. The zero/nil Topology means flat (single-level) scheduling.
type Topology struct {
	levels []TopoLevel
}

// NewTopology validates the levels (innermost first) and builds a
// Topology: every capacity must be a positive power of two strictly
// larger than the previous level's, and worker counts must be positive
// and non-decreasing outward.
func NewTopology(levels ...TopoLevel) (*Topology, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("core: topology needs at least one level")
	}
	for i, l := range levels {
		if l.Capacity == 0 {
			return nil, fmt.Errorf("core: topology level %d has zero capacity", i)
		}
		if l.Workers < 1 {
			return nil, fmt.Errorf("core: topology level %d has %d workers (want >= 1)", i, l.Workers)
		}
		if i > 0 {
			if l.Capacity <= levels[i-1].Capacity {
				return nil, fmt.Errorf("core: topology level %d capacity %d does not exceed level %d capacity %d (levels are innermost-first)",
					i, l.Capacity, i-1, levels[i-1].Capacity)
			}
			if l.Workers < levels[i-1].Workers {
				return nil, fmt.Errorf("core: topology level %d has %d workers, fewer than level %d's %d (sharing cannot shrink outward)",
					i, l.Workers, i-1, levels[i-1].Workers)
			}
		}
	}
	return &Topology{levels: append([]TopoLevel(nil), levels...)}, nil
}

// ParseTopology parses a comma-separated topology spec, innermost level
// first, each level "capacity:workers"; a level with any other number of
// fields is an error naming that level. Capacities accept k/m/g suffixes
// (powers of 1024). For example "32k:2,256k:8,8m:64" is a machine whose
// 32 KB L1s are shared by 2 workers, 256 KB L2s by 8, and an 8 MB LLC by
// all 64.
func ParseTopology(spec string) (*Topology, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || strings.EqualFold(spec, "flat") {
		return nil, nil
	}
	var levels []TopoLevel
	for i, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 2 {
			return nil, fmt.Errorf("core: topology level %d %q: want capacity:workers", i, part)
		}
		capBytes, err := parseSize(fields[0])
		if err != nil {
			return nil, fmt.Errorf("core: topology level %q: %v", part, err)
		}
		workers, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("core: topology level %q: bad worker count: %v", part, err)
		}
		levels = append(levels, TopoLevel{Capacity: capBytes, Workers: workers})
	}
	return NewTopology(levels...)
}

// parseSize parses a byte count with an optional k/m/g suffix.
func parseSize(s string) (uint64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if n == 0 || n > (^uint64(0))/mult {
		return 0, fmt.Errorf("size %q out of range", s)
	}
	return n * mult, nil
}

// Levels returns the number of cache levels; a nil Topology has one (the
// flat degenerate case).
func (t *Topology) Levels() int {
	if t == nil {
		return 1
	}
	return len(t.levels)
}

// Level returns the i'th level, innermost first. On a nil Topology it
// returns the flat pseudo-level (unbounded capacity, all workers).
func (t *Topology) Level(i int) TopoLevel {
	if t == nil {
		return TopoLevel{Capacity: ^uint64(0), Workers: 1 << 30}
	}
	return t.levels[i]
}

// String renders the topology in ParseTopology's format.
func (t *Topology) String() string {
	if t == nil {
		return "flat"
	}
	var b strings.Builder
	for i, l := range t.levels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(formatSize(l.Capacity))
		fmt.Fprintf(&b, ":%d", l.Workers)
	}
	return b.String()
}

// formatSize renders a byte count with the largest exact k/m/g suffix.
func formatSize(n uint64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dg", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dm", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dk", n>>10)
	default:
		return strconv.FormatUint(n, 10)
	}
}

// clusterSize is the number of workers sharing one level-i cache
// instance, clamped to the run's worker count (a topology written for a
// bigger machine still groups a smaller run sensibly).
func (t *Topology) clusterSize(i, workers int) int {
	c := t.Level(i).Workers
	if c > workers {
		c = workers
	}
	if c < 1 {
		c = 1
	}
	return c
}

// sharedLevel is the innermost level at which workers a and b share a
// cache instance under the static contiguous worker grouping (workers
// [0,c), [c,2c), ... share each level instance of cluster size c). It
// returns Levels()-1 when they meet only at the outermost level.
func (t *Topology) sharedLevel(a, b, workers int) int {
	last := t.Levels() - 1
	for l := 0; l < last; l++ {
		c := t.clusterSize(l, workers)
		if a/c == b/c {
			return l
		}
	}
	return last
}
