package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/gpu"
)

func paperSimCluster() *Cluster {
	// 15 nodes, 20 of each type: 5 nodes x 4 GPUs per type.
	return Merge(
		Homogeneous(5, gpu.V100, 4),
		Homogeneous(5, gpu.P100, 4),
		Homogeneous(5, gpu.K80, 4),
	)
}

func TestNewAssignsIDsAndSpeeds(t *testing.T) {
	c := New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 1})
	if c.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	for i := 0; i < 2; i++ {
		if c.Nodes()[i].ID != i {
			t.Errorf("node %d has ID %d", i, c.Nodes()[i].ID)
		}
		if c.Speed(i) != 1.0 {
			t.Errorf("node %d default speed %v", i, c.Speed(i))
		}
	}
}

func TestNewClonesCapacity(t *testing.T) {
	f := gpu.Fleet{gpu.V100: 2}
	c := New(f)
	f[gpu.V100] = 99
	if c.Capacity(0, gpu.V100) != 2 {
		t.Error("New shares caller's fleet storage")
	}
}

func TestHomogeneousAndMerge(t *testing.T) {
	c := paperSimCluster()
	if c.NumNodes() != 15 {
		t.Errorf("NumNodes = %d, want 15", c.NumNodes())
	}
	if c.TotalGPUs() != 60 {
		t.Errorf("TotalGPUs = %d, want 60", c.TotalGPUs())
	}
	for _, typ := range []gpu.Type{gpu.V100, gpu.P100, gpu.K80} {
		if got := NewState(c).CapacityOfType(typ); got != 20 {
			t.Errorf("CapacityOfType(%v) = %d, want 20", typ, got)
		}
	}
	// Merge must reassign IDs contiguously.
	for i := 0; i < 15; i++ {
		if c.Nodes()[i].ID != i {
			t.Errorf("merged node %d has ID %d", i, c.Nodes()[i].ID)
		}
	}
}

func TestFleetKeptByNewAndMerge(t *testing.T) {
	c := Merge(New(gpu.Fleet{gpu.V100: 2, gpu.K80: 1}), Homogeneous(3, gpu.P100, 4))
	if want := (gpu.Fleet{gpu.V100: 2, gpu.P100: 12, gpu.K80: 1}); c.Fleet() != want {
		t.Errorf("Fleet() = %v, want %v", c.Fleet(), want)
	}
	if c.TotalGPUs() != 15 {
		t.Errorf("TotalGPUs = %d, want 15", c.TotalGPUs())
	}
	if got, want := c.String(), "cluster[4 nodes, {V100:2 P100:12 K80:1}]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestClusterBuildAllocs requires building a cluster and its free state
// to allocate as many objects at 5 000 nodes as at 500: capacities are
// stored by value, so nothing is allocated per node.
func TestClusterBuildAllocs(t *testing.T) {
	build := func(nodes int) float64 {
		fleets := make([]gpu.Fleet, nodes)
		for i := range fleets {
			fleets[i][i%3] = 4
		}
		return testing.AllocsPerRun(10, func() { NewState(New(fleets...)) })
	}
	if small, large := build(500), build(5000); small != large {
		t.Errorf("building 500 nodes allocates %v objects, 5 000 nodes %v; want equal", small, large)
	}
}

func TestTypesSorted(t *testing.T) {
	c := paperSimCluster()
	types := NewState(c).Types()
	want := []gpu.Type{gpu.V100, gpu.P100, gpu.K80}
	if len(types) != len(want) {
		t.Fatalf("Types = %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("Types = %v, want %v", types, want)
		}
	}
}

func TestSetSpeed(t *testing.T) {
	c := Homogeneous(1, gpu.V100, 1)
	c.SetSpeed(0, 0.5)
	if c.Speed(0) != 0.5 {
		t.Error("SetSpeed did not take")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetSpeed(0) did not panic")
		}
	}()
	c.SetSpeed(0, 0)
}

func TestAllocWorkersNodesTypes(t *testing.T) {
	a := Alloc{
		{Node: 0, Type: gpu.V100, Count: 2},
		{Node: 1, Type: gpu.K80, Count: 1},
		{Node: 0, Type: gpu.V100, Count: 1},
	}
	if a.Workers() != 4 {
		t.Errorf("Workers = %d, want 4", a.Workers())
	}
	if a.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", a.NumNodes())
	}
	// The types, counted per node: three V100 on node 0, one K80 on 1.
	if want := (Alloc{{Node: 0, Type: gpu.V100, Count: 3}, {Node: 1, Type: gpu.K80, Count: 1}}); !a.Canonical().Equal(want) {
		t.Errorf("Canonical = %v, want %v", a.Canonical(), want)
	}
}

func TestAllocCanonicalMergesAndSorts(t *testing.T) {
	a := Alloc{
		{Node: 1, Type: gpu.K80, Count: 1},
		{Node: 0, Type: gpu.V100, Count: 1},
		{Node: 0, Type: gpu.V100, Count: 2},
		{Node: 2, Type: gpu.P100, Count: 0}, // dropped
	}
	c := a.Canonical()
	if len(c) != 2 {
		t.Fatalf("Canonical = %v", c)
	}
	if c[0] != (Placement{0, gpu.V100, 3}) || c[1] != (Placement{1, gpu.K80, 1}) {
		t.Errorf("Canonical = %v", c)
	}
}

func TestAllocEqual(t *testing.T) {
	a := Alloc{{0, gpu.V100, 2}, {1, gpu.K80, 1}}
	b := Alloc{{1, gpu.K80, 1}, {0, gpu.V100, 1}, {0, gpu.V100, 1}}
	if !a.Equal(b) {
		t.Error("order/split-insensitive Equal failed")
	}
	c := Alloc{{0, gpu.V100, 2}}
	if a.Equal(c) {
		t.Error("unequal allocations reported equal")
	}
	var nilAlloc Alloc
	if !nilAlloc.Equal(Alloc{}) {
		t.Error("nil != empty")
	}
}

func TestAllocCloneIndependent(t *testing.T) {
	a := Alloc{{0, gpu.V100, 2}}
	b := a.Clone()
	b[0].Count = 9
	if a[0].Count != 2 {
		t.Error("Clone shares storage")
	}
	var n Alloc
	if n.Clone() != nil {
		t.Error("nil Clone not nil")
	}
}

func TestAllocString(t *testing.T) {
	a := Alloc{{Node: 3, Type: gpu.K80, Count: 1}, {Node: 0, Type: gpu.V100, Count: 2}}
	if got := a.String(); got != "[n0:V100x2 n3:K80x1]" {
		t.Errorf("String = %q", got)
	}
}

func TestStateAllocateRelease(t *testing.T) {
	c := New(gpu.Fleet{gpu.V100: 2, gpu.K80: 1})
	s := NewState(c)
	if s.TotalFree() != 3 {
		t.Fatalf("TotalFree = %d", s.TotalFree())
	}
	a := Alloc{{0, gpu.V100, 2}}
	if err := s.Allocate(a); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if s.Free(0, gpu.V100) != 0 || s.FreeOfType(gpu.K80) != 1 {
		t.Error("free counts wrong after Allocate")
	}
	if err := s.Release(a); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if s.TotalFree() != 3 {
		t.Error("free counts wrong after Release")
	}
}

func TestStateAllocateOverCapacity(t *testing.T) {
	s := NewState(New(gpu.Fleet{gpu.V100: 1}))
	err := s.Allocate(Alloc{{0, gpu.V100, 2}})
	if err == nil {
		t.Fatal("over-allocation accepted")
	}
	if s.Free(0, gpu.V100) != 1 {
		t.Error("failed Allocate mutated state")
	}
}

func TestStateAllocateAtomicity(t *testing.T) {
	// Second placement invalid: the first must not be applied.
	s := NewState(New(gpu.Fleet{gpu.V100: 2}))
	err := s.Allocate(Alloc{{0, gpu.V100, 1}, {5, gpu.K80, 1}})
	if err == nil {
		t.Fatal("invalid node accepted")
	}
	if s.Free(0, gpu.V100) != 2 {
		t.Error("partial allocation applied")
	}
}

func TestStateDoubleReleaseRejected(t *testing.T) {
	s := NewState(New(gpu.Fleet{gpu.V100: 1}))
	a := Alloc{{0, gpu.V100, 1}}
	if err := s.Allocate(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(a); err == nil {
		t.Error("double release accepted")
	}
}

func TestStateInvalidTypeRejected(t *testing.T) {
	s := NewState(New(gpu.Fleet{gpu.V100: 1}))
	if err := s.Allocate(Alloc{{0, gpu.Type(99), 1}}); err == nil {
		t.Error("invalid type accepted")
	}
}

func TestStateCloneIndependent(t *testing.T) {
	s := NewState(New(gpu.Fleet{gpu.V100: 2}))
	c := s.Clone()
	if err := c.Allocate(Alloc{{0, gpu.V100, 1}}); err != nil {
		t.Fatal(err)
	}
	if s.Free(0, gpu.V100) != 2 {
		t.Error("Clone shares free counts")
	}
}

func TestStateKeyDistinguishesStates(t *testing.T) {
	c := New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 3})
	s1 := NewState(c)
	s2 := NewState(c)
	if s1.Key() != s2.Key() {
		t.Error("identical states have different keys")
	}
	if err := s2.Allocate(Alloc{{1, gpu.K80, 1}}); err != nil {
		t.Fatal(err)
	}
	if s1.Key() == s2.Key() {
		t.Error("different states share a key")
	}
}

func TestStateKeyLargeCounts(t *testing.T) {
	c := New(gpu.Fleet{gpu.V100: 300}, gpu.Fleet{gpu.V100: 299})
	s1 := NewState(c)
	s2 := s1.Clone()
	if err := s2.Allocate(Alloc{{0, gpu.V100, 1}}); err != nil {
		t.Fatal(err)
	}
	if s1.Key() == s2.Key() {
		t.Error("keys collide for counts >= 250")
	}
}

// Property: Allocate followed by Release restores the exact free state.
func TestAllocateReleaseRoundTripProperty(t *testing.T) {
	c := New(gpu.Fleet{gpu.V100: 4, gpu.K80: 4}, gpu.Fleet{gpu.P100: 4})
	prop := func(n1, n2, n3 uint8) bool {
		s := NewState(c)
		before := s.Key()
		a := Alloc{
			{0, gpu.V100, int(n1 % 5)},
			{0, gpu.K80, int(n2 % 5)},
			{1, gpu.P100, int(n3 % 5)},
		}
		if err := s.Allocate(a); err != nil {
			return s.Key() == before // failed allocation must not mutate
		}
		if err := s.Release(a); err != nil {
			return false
		}
		return s.Key() == before
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: free counts never go negative or exceed capacity under a
// random sequence of allocate/release pairs.
func TestFreeBoundsProperty(t *testing.T) {
	c := New(gpu.Fleet{gpu.V100: 3}, gpu.Fleet{gpu.V100: 2, gpu.K80: 2})
	prop := func(ops []uint8) bool {
		s := NewState(c)
		var held []Alloc
		for _, op := range ops {
			node := int(op) % 2
			count := int(op/2)%3 + 1
			typ := gpu.V100
			if op%5 == 0 {
				typ = gpu.K80
			}
			a := Alloc{{node, typ, count}}
			if op%3 == 0 && len(held) > 0 {
				if err := s.Release(held[0]); err != nil {
					return false
				}
				held = held[1:]
			} else if err := s.Allocate(a); err == nil {
				held = append(held, a)
			}
			for id := 0; id < 2; id++ {
				for typ := gpu.Type(0); typ < gpu.NumTypes; typ++ {
					f := s.Free(id, typ)
					if f < 0 || f > c.Capacity(id, typ) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSetDownZeroesFailedNode(t *testing.T) {
	c := New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 3, gpu.V100: 4})
	s := NewState(c)
	if err := s.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if s.Capacity(0, gpu.V100) != 0 || s.Free(0, gpu.V100) != 0 {
		t.Error("failed node still has capacity")
	}
	if s.Capacity(1, gpu.K80) != 3 || s.Free(1, gpu.V100) != 4 {
		t.Error("healthy node changed")
	}
	if s.CapacityOfType(gpu.V100) != 4 || s.FreeOfType(gpu.V100) != 4 || s.TotalCapacity() != 7 {
		t.Errorf("totals still count the failed node: V100 capacity %d free %d, total %d",
			s.CapacityOfType(gpu.V100), s.FreeOfType(gpu.V100), s.TotalCapacity())
	}
	// Mixed V100 capacities {2, 4} become uniform while node 0 is down.
	if got := s.UniformCap(gpu.V100); got != 4 {
		t.Errorf("UniformCap(V100) = %d with node 0 down, want 4", got)
	}
	// The cluster itself is untouched, and so is a state built later.
	if c.Capacity(0, gpu.V100) != 2 || NewState(c).Free(0, gpu.V100) != 2 {
		t.Error("SetDown mutated the cluster")
	}
	a := Alloc{{Node: 0, Type: gpu.V100, Count: 1}}
	if s.Allocate(a) == nil || s.Release(a) == nil {
		t.Error("a down node accepted an allocation or a release")
	}
	if err := s.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	if s.Hash() != NewState(c).Hash() || s.UniformCap(gpu.V100) != -1 || s.Free(0, gpu.V100) != 2 {
		t.Error("marking the node up did not restore the fully free state")
	}
	// With the only K80 node down the type is gone from the view.
	if err := s.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	if ts := s.Types(); len(ts) != 1 || ts[0] != gpu.V100 || s.UniformCap(gpu.K80) != 0 {
		t.Errorf("Types() = %v, UniformCap(K80) = %d with the K80 node down", ts, s.UniformCap(gpu.K80))
	}
	checkCounters(t, s)
}

func TestSetDownRefusals(t *testing.T) {
	s := NewState(New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 3}))
	if s.SetDown(2, true) == nil || s.SetDown(-1, false) == nil {
		t.Error("outage mark on a node the cluster does not have was accepted")
	}
	a := Alloc{{Node: 0, Type: gpu.V100, Count: 1}}
	if err := s.Allocate(a); err != nil {
		t.Fatal(err)
	}
	before := s.Hash()
	if s.SetDown(0, true) == nil || s.Hash() != before {
		t.Error("node with a device allocated was marked down")
	}
	if err := s.Release(a); err != nil {
		t.Fatal(err)
	}
	sp := s.Savepoint()
	if s.SetDown(0, true) == nil {
		t.Error("node marked down inside a transaction")
	}
	s.Rollback(sp)
	if err := s.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	sp = s.Savepoint()
	if s.SetDown(0, false) == nil {
		t.Error("node marked up inside a transaction")
	}
	if err := s.SetDown(0, true); err != nil {
		t.Errorf("re-marking a down node down is a no-op, got %v", err)
	}
	s.Rollback(sp)
	if err := s.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	checkCounters(t, s)
}
