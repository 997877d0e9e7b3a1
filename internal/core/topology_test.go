package core

import (
	"strings"
	"testing"
)

// TestParseTopology round-trips valid specs and rejects malformed ones.
func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec   string
		want   string // String() of the parsed topology; "" = expect error
		levels int
	}{
		{"32k:2,256k:8,8m:64", "32k:2,256k:8,8m:64", 3},
		{"  32k:2 , 256k:8 ", "32k:2,256k:8", 2},
		{"4096:1", "4k:1", 1},
		{"2g:128", "2g:128", 1},
		{"32k:2,32k:4", "", 0},  // capacity must strictly increase
		{"256k:8,32k:2", "", 0}, // innermost-first ordering enforced
		{"32k:4,256k:2", "", 0}, // sharing cannot shrink outward
		{"32k:0", "", 0},
		{"0:2", "", 0},
		{"32k", "", 0},
		{"32k:2:3:4", "", 0},
		{"1m:4:8", "", 0},            // no third per-level field
		{"32k:2:4,256k:8:16", "", 0}, // in any level
		{"32q:2", "", 0},
		{"32k:two", "", 0},
	}
	for _, c := range cases {
		topo, err := ParseTopology(c.spec)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseTopology(%q) = %v, want error", c.spec, topo)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", c.spec, err)
			continue
		}
		if got := topo.String(); got != c.want {
			t.Errorf("ParseTopology(%q).String() = %q, want %q", c.spec, got, c.want)
		}
		if c.levels > 0 && topo.Levels() != c.levels {
			t.Errorf("ParseTopology(%q).Levels() = %d, want %d", c.spec, topo.Levels(), c.levels)
		}
	}
	// The error for a malformed level names that level.
	if _, err := ParseTopology("32k:2,256k:8:16"); err == nil || !strings.Contains(err.Error(), `level 1 "256k:8:16"`) {
		t.Errorf("three-field level: err = %v, want level 1 named", err)
	}
}

// TestParseTopologyFlat maps the empty and "flat" specs to the nil
// Topology, whose accessors describe the single flat pseudo-level.
func TestParseTopologyFlat(t *testing.T) {
	for _, spec := range []string{"", "  ", "flat", "FLAT"} {
		topo, err := ParseTopology(spec)
		if err != nil || topo != nil {
			t.Fatalf("ParseTopology(%q) = (%v, %v), want (nil, nil)", spec, topo, err)
		}
	}
	var topo *Topology
	if topo.Levels() != 1 {
		t.Fatalf("nil Levels() = %d, want 1", topo.Levels())
	}
	if topo.String() != "flat" {
		t.Fatalf("nil String() = %q", topo.String())
	}
	if l := topo.Level(0); l.Capacity != ^uint64(0) {
		t.Fatalf("nil Level(0) = %+v", l)
	}
}

// TestTopologyClustering checks the static contiguous worker grouping:
// cluster sizes clamp to the run's worker count and sharedLevel finds the
// innermost cache two workers have in common.
func TestTopologyClustering(t *testing.T) {
	topo, err := ParseTopology("32k:2,256k:4,8m:16")
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.clusterSize(0, 16); got != 2 {
		t.Errorf("clusterSize(0) = %d, want 2", got)
	}
	if got := topo.clusterSize(1, 3); got != 3 { // clamped to the run
		t.Errorf("clusterSize(1, workers=3) = %d, want 3", got)
	}
	cases := []struct{ a, b, want int }{
		{0, 1, 0}, // same L1 pair
		{0, 2, 1}, // same L2 quad, different L1
		{0, 4, 2}, // different L2
		{5, 6, 1}, // workers 4-7 share an L2; 5 and 6 split across L1 pairs... 4|5 and 6|7
		{14, 15, 0},
	}
	for _, c := range cases {
		if got := topo.sharedLevel(c.a, c.b, 16); got != c.want {
			t.Errorf("sharedLevel(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestNewTopologyErrorsName verifies validation errors identify the level.
func TestNewTopologyErrorsName(t *testing.T) {
	if _, err := ParseTopology("32k:2,256k:8:16"); err == nil || !strings.Contains(err.Error(), `level 1 "256k:8:16"`) {
		t.Fatalf("err = %v, want the three-field level named", err)
	}
	_, err := NewTopology(TopoLevel{Capacity: 1 << 15, Workers: 2}, TopoLevel{Capacity: 1 << 14, Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "level 1") {
		t.Fatalf("err = %v, want mention of level 1", err)
	}
	if _, err := NewTopology(); err == nil {
		t.Fatal("empty NewTopology succeeded")
	}
}
