package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/gpu"
)

// These tests exercise the transactional State as a black box driven by
// op scripts, checking after every step that the incrementally
// maintained counters and hash agree with a from-scratch recompute, and
// that any interleaving of Allocate/Release/Savepoint/Rollback/Commit
// and outage marks round-trips exactly to the free counts it started
// from.

// checkCounters recomputes byType, total, and the Zobrist hash from the
// flat free array and compares them to the incrementally maintained
// values.
func checkCounters(t *testing.T, s *State) {
	t.Helper()
	var byType [gpu.NumTypes]int
	total := 0
	var hash uint64
	for cell, f := range s.free {
		if f < 0 || f > s.cap[cell] {
			t.Fatalf("cell %d free %d out of range [0, %d]", cell, f, s.cap[cell])
		}
		byType[cell%stride] += int(f)
		total += int(f)
		hash ^= cellHash(cell, f)
	}
	if byType != s.byType {
		t.Fatalf("byType drifted: incremental %v, recomputed %v", s.byType, byType)
	}
	if total != s.total {
		t.Fatalf("total drifted: incremental %d, recomputed %d", s.total, total)
	}
	if hash != s.hash {
		t.Fatalf("hash drifted: incremental %#x, recomputed %#x", s.hash, hash)
	}
	checkIndexes(t, s)
}

// checkIndexes recomputes the non-zero and per-free-count bitmap
// indexes from the flat free array, and the capacity table and its
// per-type summaries from the cluster and the outage marks, and
// compares them to the incrementally maintained ones; then checks the
// consolidation-order iterator against a from-scratch sort.
func checkIndexes(t *testing.T, s *State) {
	t.Helper()
	capTotal := 0
	for typ := gpu.Type(0); typ < gpu.NumTypes; typ++ {
		capOfType, uniform := 0, 0
		capNodes := make([]int32, len(s.capNodes[typ]))
		for node := 0; node < s.c.NumNodes(); node++ {
			f := s.free[node*stride+int(typ)]
			want := s.c.Capacity(node, typ)
			if s.down[node] {
				want = 0
			}
			if got := s.Capacity(node, typ); got != want {
				t.Fatalf("State.Capacity(%d, %v) = %d, want %d (down: %v)", node, typ, got, want, s.down[node])
			}
			if want > 0 {
				capOfType += want
				capNodes[want]++
				switch {
				case uniform == 0:
					uniform = want
				case uniform != want:
					uniform = -1
				}
			}
			word, bit := node>>6, uint(node&63)
			wantNZ := f > 0
			gotNZ := s.nz[typ] != nil && s.nz[typ][word]&(1<<bit) != 0
			if wantNZ != gotNZ {
				t.Fatalf("nz[%v] bit for node %d = %v, want %v (free %d)", typ, node, gotNZ, wantNZ, f)
			}
			for cnt := 1; cnt < len(s.byFree[typ]); cnt++ {
				got := s.byFree[typ][cnt][word]&(1<<bit) != 0
				if want := int(f) == cnt; got != want {
					t.Fatalf("byFree[%v][%d] bit for node %d = %v, want %v (free %d)", typ, cnt, node, got, want, f)
				}
			}
		}
		if got := s.CapacityOfType(typ); got != capOfType {
			t.Fatalf("CapacityOfType(%v) = %d, recomputed %d", typ, got, capOfType)
		}
		capTotal += capOfType
		if got := s.UniformCap(typ); got != uniform {
			t.Fatalf("UniformCap(%v) = %d, recomputed %d", typ, got, uniform)
		}
		for c, n := range s.CapacityCounts(typ) {
			if n != capNodes[c] {
				t.Fatalf("CapacityCounts(%v)[%d] = %d, recomputed %d", typ, c, n, capNodes[c])
			}
		}
		// The bucket iterator must equal a brute-force consolidation sort
		// (free descending, node ascending) of the free-node list.
		want := append([]NodeFree(nil), s.FreeNodes(typ, nil)...)
		for i := 1; i < len(want); i++ {
			for k := i; k > 0 && (want[k].Free > want[k-1].Free ||
				(want[k].Free == want[k-1].Free && want[k].Node < want[k-1].Node)); k-- {
				want[k], want[k-1] = want[k-1], want[k]
			}
		}
		got := s.AppendFreeNodesByFreeDesc(typ, 0, nil)
		if len(got) != len(want) {
			t.Fatalf("AppendFreeNodesByFreeDesc(%v) returned %d nodes, want %d", typ, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("AppendFreeNodesByFreeDesc(%v)[%d] = %+v, want %+v", typ, i, got[i], want[i])
			}
		}
		if len(want) > 1 {
			if truncated := s.AppendFreeNodesByFreeDesc(typ, 1, nil); len(truncated) != 1 || truncated[0] != want[0] {
				t.Fatalf("AppendFreeNodesByFreeDesc(%v, 1) = %+v, want [%+v]", typ, truncated, want[0])
			}
		}
	}
	if got := s.TotalCapacity(); got != capTotal {
		t.Fatalf("TotalCapacity() = %d, recomputed %d", got, capTotal)
	}
}

// frame snapshots everything a savepoint must restore on rollback.
type frame struct {
	sp   int
	key  string
	hash uint64
	held []Alloc // copy of the held list at savepoint time
}

// scriptCluster is deliberately heterogeneous: uneven per-node fleets,
// including a node with zero devices of some types.
func scriptCluster() *Cluster {
	return New(
		gpu.Fleet{gpu.V100: 4, gpu.P100: 2},
		gpu.Fleet{gpu.V100: 4},
		gpu.Fleet{gpu.P100: 3, gpu.K80: 1, gpu.T4: 2},
		gpu.Fleet{gpu.K520: 4},
	)
}

// runStateScript interprets data as a sequence of state operations and
// checks every invariant along the way. It is shared by the fuzz target
// and the seeded property test.
func runStateScript(t *testing.T, data []byte) {
	c := scriptCluster()
	s := NewState(c)
	initKey, initHash := s.Key(), s.Hash()

	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	randomAlloc := func() Alloc {
		n := int(next())%3 + 1
		a := make(Alloc, 0, n)
		for i := 0; i < n; i++ {
			a = append(a, Placement{
				Node:  int(next()) % (c.NumNodes() + 1), // may be invalid
				Type:  gpu.Type(int(next()) % (int(gpu.NumTypes) + 1)),
				Count: int(next())%6 - 1, // -1..4; <=0 entries must be ignored
			})
		}
		return a
	}

	var stack []frame
	var held []Alloc // allocations currently applied, in apply order
	heldOn := func(node int) bool {
		for _, a := range held {
			for _, p := range a {
				if p.Count > 0 && p.Node == node {
					return true
				}
			}
		}
		return false
	}
	for len(data) > 0 {
		op := next() % 11
		switch op {
		case 0, 1, 2: // Allocate
			a := randomAlloc()
			before := s.Hash()
			if err := s.Allocate(a); err != nil {
				if s.Hash() != before {
					t.Fatalf("failed Allocate mutated state: %v", err)
				}
			} else {
				held = append(held, a)
			}
		case 3, 4: // Release a held allocation
			if len(held) == 0 {
				continue
			}
			i := int(next()) % len(held)
			if err := s.Release(held[i]); err != nil {
				t.Fatalf("release of held allocation failed: %v", err)
			}
			held = append(held[:i], held[i+1:]...)
		case 5: // Release something arbitrary (usually over capacity)
			a := randomAlloc()
			before := s.Hash()
			if err := s.Release(a); err != nil {
				if s.Hash() != before {
					t.Fatalf("failed Release mutated state: %v", err)
				}
			} else {
				// Legitimately released capacity someone held: balance the
				// books by immediately re-allocating (must fit: we just
				// freed it).
				if err := s.Allocate(a); err != nil {
					t.Fatalf("re-allocate after arbitrary release failed: %v", err)
				}
			}
		case 6: // Savepoint
			stack = append(stack, frame{
				sp:   s.Savepoint(),
				key:  s.Key(),
				hash: s.Hash(),
				held: append([]Alloc(nil), held...),
			})
		case 7: // Rollback innermost
			if len(stack) == 0 {
				continue
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s.Rollback(f.sp)
			if s.Key() != f.key || s.Hash() != f.hash {
				t.Fatalf("rollback did not restore savepoint state:\nkey  %q -> %q\nhash %#x -> %#x",
					f.key, s.Key(), f.hash, s.Hash())
			}
			held = f.held
		case 8: // Commit innermost (state must be untouched)
			if len(stack) == 0 {
				continue
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			key, hash := s.Key(), s.Hash()
			s.Commit(f.sp)
			if s.Key() != key || s.Hash() != hash {
				t.Fatal("commit changed the free state")
			}
		case 9, 10: // Mark a node (possibly invalid) down (9) or up (10)
			node := int(next()) % (c.NumNodes() + 1)
			down := op == 9
			// Marking a node the way it already is does nothing, anywhere;
			// a real change is refused inside a transaction, and so is
			// taking down a node that has devices allocated.
			noop := node < c.NumNodes() && s.down[node] == down
			refuse := node == c.NumNodes() || (!noop && (len(stack) > 0 || (down && heldOn(node))))
			before := s.Hash()
			err := s.SetDown(node, down)
			if refuse != (err != nil) {
				t.Fatalf("SetDown(%d, %v) with %d savepoints open, held on node %v: err = %v, want refusal %v",
					node, down, len(stack), node < c.NumNodes() && heldOn(node), err, refuse)
			}
			if (refuse || noop) && s.Hash() != before {
				t.Fatalf("refused or no-op SetDown(%d, %v) mutated state", node, down)
			}
		}
		if s.Savepoints() != len(stack) {
			t.Fatalf("Savepoints() = %d, script has %d open", s.Savepoints(), len(stack))
		}
		checkCounters(t, s)
	}

	// Close every open transaction (innermost first), then return every
	// held allocation: the state must round-trip to fully free.
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.Rollback(f.sp)
		held = f.held
		checkCounters(t, s)
	}
	for _, a := range held {
		if err := s.Release(a); err != nil {
			t.Fatalf("final release failed: %v", err)
		}
	}
	for node := 0; node < c.NumNodes(); node++ {
		if err := s.SetDown(node, false); err != nil {
			t.Fatalf("final mark-up failed: %v", err)
		}
	}
	checkCounters(t, s)
	if s.Key() != initKey || s.Hash() != initHash {
		t.Fatalf("state did not round-trip to initial:\nkey  %q -> %q\nhash %#x -> %#x",
			initKey, s.Key(), initHash, s.Hash())
	}
	if s.TotalFree() != c.TotalGPUs() {
		t.Fatalf("TotalFree = %d after round-trip, want %d", s.TotalFree(), c.TotalGPUs())
	}
}

// TestStateTransactionProperty drives runStateScript with pseudo-random
// scripts across many seeds, so the interleaving property holds in
// plain `go test` runs without the fuzzing engine.
func TestStateTransactionProperty(t *testing.T) {
	scripts := 64
	if testing.Short() {
		scripts = 8
	}
	for seed := 0; seed < scripts; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 40+rng.Intn(600))
		rng.Read(data)
		runStateScript(t, data)
	}
}

// FuzzStateTransactions lets `go test -fuzz=FuzzStateTransactions`
// search for op interleavings that break the transactional invariants.
func FuzzStateTransactions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 0, 1, 2, 7})                       // savepoint, alloc, rollback
	f.Add([]byte{0, 1, 0, 0, 3, 6, 0, 2, 1, 1, 8})        // alloc, release, savepoint, alloc, commit
	f.Add([]byte{6, 6, 0, 0, 0, 4, 8, 7, 5, 9, 9, 9})     // nested savepoints
	f.Add([]byte{9, 2, 0, 0, 2, 0, 1, 6, 9, 1, 7, 10, 2}) // node 2 down, alloc on it, mark inside a savepoint, node 2 up
	f.Add([]byte{0, 0, 1, 0, 3, 9, 1, 3, 0, 9, 1, 10, 1}) // alloc on node 1, down refused, release, down, up
	f.Fuzz(func(t *testing.T, data []byte) {
		runStateScript(t, data)
	})
}

// TestStateHashMatchesKey checks on random walks that the 64-bit Hash
// and the canonical string Key agree on equality: states reached by
// different operation orders but with identical free counts must share
// both, and distinct Keys must (for these cases) produce distinct
// Hashes.
func TestStateHashMatchesKey(t *testing.T) {
	c := scriptCluster()
	rng := rand.New(rand.NewSource(7))
	seen := map[string]uint64{}
	for i := 0; i < 400; i++ {
		s := NewState(c)
		for steps := rng.Intn(6); steps > 0; steps-- {
			node := rng.Intn(c.NumNodes())
			typ := gpu.Type(rng.Intn(int(gpu.NumTypes)))
			count := rng.Intn(3) + 1
			// Ignore failures; we only care about whatever state results.
			_ = s.Allocate(Alloc{{Node: node, Type: typ, Count: count}})
		}
		key, hash := s.Key(), s.Hash()
		if prev, ok := seen[key]; ok {
			if prev != hash {
				t.Fatalf("same Key %q, different Hash %#x vs %#x", key, prev, hash)
			}
			continue
		}
		for otherKey, otherHash := range seen {
			if otherHash == hash {
				t.Fatalf("Hash collision %#x between Keys %q and %q", hash, key, otherKey)
			}
		}
		seen[key] = hash
	}
}

// TestSavepointStackDiscipline pins the misuse behavior: closing a
// savepoint twice panics rather than corrupting the state.
func TestSavepointStackDiscipline(t *testing.T) {
	s := NewState(scriptCluster())
	sp := s.Savepoint()
	s.Rollback(sp)
	defer func() {
		if recover() == nil {
			t.Fatal("rollback of a closed savepoint did not panic")
		}
	}()
	s.Rollback(sp)
}

// TestRollbackClosesNestedSavepoints pins that rolling back an outer
// savepoint also closes (and undoes) savepoints nested inside it.
func TestRollbackClosesNestedSavepoints(t *testing.T) {
	c := scriptCluster()
	s := NewState(c)
	outer := s.Savepoint()
	if err := s.Allocate(Alloc{{Node: 0, Type: gpu.V100, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	inner := s.Savepoint()
	if err := s.Allocate(Alloc{{Node: 1, Type: gpu.V100, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	s.Rollback(outer)
	if s.TotalFree() != c.TotalGPUs() {
		t.Fatalf("outer rollback left %d free, want %d", s.TotalFree(), c.TotalGPUs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inner savepoint survived outer rollback")
		}
	}()
	s.Rollback(inner)
}
