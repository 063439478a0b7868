package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gpu"
)

// mapCanonical is Alloc.Canonical as it was before AppendCanonical:
// merge counts in a map keyed by (node, type), then sort. It is the
// oracle the insertion-sort-and-merge implementation must match.
func mapCanonical(a Alloc) Alloc {
	merged := map[[2]int]int{}
	for _, p := range a {
		if p.Count > 0 {
			merged[[2]int{p.Node, int(p.Type)}] += p.Count
		}
	}
	out := make(Alloc, 0, len(merged))
	//lint:ignore maprange the result is fully sorted by (node, type) immediately below
	for k, count := range merged {
		out = append(out, Placement{Node: k[0], Type: gpu.Type(k[1]), Count: count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// allocFromBytes decodes three bytes per placement over a small node and
// type range, so duplicate (node, type) pairs are common, with counts in
// [-2, 3]: zero and negative counts (which Canonical drops) included.
func allocFromBytes(data []byte) Alloc {
	var a Alloc
	for ; len(data) >= 3; data = data[3:] {
		a = append(a, Placement{
			Node:  int(data[0] % 6),
			Type:  gpu.Type(data[1] % uint8(gpu.NumTypes)),
			Count: int(data[2]%6) - 2,
		})
	}
	return a
}

// checkCanonical compares AppendCanonical, Canonical, Equal and NumNodes
// on a against the map oracle.
func checkCanonical(t *testing.T, a Alloc) {
	t.Helper()
	orig := slices.Clone(a)
	want := mapCanonical(a)
	if got := a.Canonical(); !slices.Equal(got, want) {
		t.Fatalf("Canonical(%v) = %v, oracle %v", a, got, want)
	}
	sentinel := Placement{Node: -1, Type: gpu.K520, Count: 7}
	got := a.AppendCanonical(Alloc{sentinel})
	if got[0] != sentinel || !slices.Equal(got[1:], want) {
		t.Fatalf("AppendCanonical(%v) onto a prefix = %v, oracle %v after it", a, got, want)
	}
	if !slices.Equal(a, orig) {
		t.Fatalf("AppendCanonical mutated its receiver: %v -> %v", orig, a)
	}
	if !want.isCanonical() || !a.Equal(want) || !want.Equal(a) {
		t.Fatalf("%v and its canonical form %v not Equal", a, want)
	}
	nodes := map[int]bool{}
	for _, p := range want {
		nodes[p.Node] = true
	}
	if a.NumNodes() != len(nodes) {
		t.Fatalf("NumNodes(%v) = %d, oracle %d", a, a.NumNodes(), len(nodes))
	}
}

// TestAppendCanonicalMatchesMapOracle runs the comparison over seeded
// random placement lists, and Equal over random pairs, so the property
// holds in plain `go test` runs.
func TestAppendCanonicalMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var prev Alloc
	for i := 0; i < 2000; i++ {
		data := make([]byte, 3*rng.Intn(10))
		rng.Read(data)
		a := allocFromBytes(data)
		checkCanonical(t, a)
		if got, want := a.Equal(prev), slices.Equal(mapCanonical(a), mapCanonical(prev)); got != want {
			t.Fatalf("Equal(%v, %v) = %v, oracle %v", a, prev, got, want)
		}
		prev = a
	}
}

// FuzzAppendCanonical searches for placement lists on which
// AppendCanonical and the map oracle disagree.
func FuzzAppendCanonical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 0, 0, 3})          // two nodes, out of order
	f.Add([]byte{0, 0, 3, 0, 0, 4, 0, 0, 2}) // duplicates and a zero count
	f.Add([]byte{5, 4, 1, 5, 4, 5, 2, 1, 0}) // a negative count among duplicates
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical(t, allocFromBytes(data))
	})
}

// TestCanonicalPathsAllocateNothing pins the allocation-free paths the
// scheduling round relies on: canonicalising into a buffer with room,
// comparing canonical allocations, counting nodes, and checking that an
// allocation fits.
func TestCanonicalPathsAllocateNothing(t *testing.T) {
	a := Alloc{{2, gpu.K80, 1}, {0, gpu.V100, 1}, {0, gpu.V100, 2}, {1, gpu.P100, 0}}
	buf := make(Alloc, 0, len(a))
	canon := a.Canonical()
	same := slices.Clone(canon)
	st := NewState(New(gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.P100: 1}, gpu.Fleet{gpu.K80: 1}))
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"AppendCanonical", func() { buf = a.AppendCanonical(buf[:0]) }},
		{"Equal", func() { _ = canon.Equal(same) }},
		{"NumNodes", func() { _ = a.NumNodes() }},
		{"CanAllocate", func() { _ = st.CanAllocate(a) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %v times, want 0", c.name, n)
		}
	}
	if !canon.Equal(same) || !slices.Equal(buf, canon) {
		t.Fatalf("canonical forms disagree: %v, %v, %v", canon, same, buf)
	}
}
