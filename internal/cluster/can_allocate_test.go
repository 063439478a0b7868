package cluster

import (
	"testing"

	"repro/internal/gpu"
)

// transactionalCanAllocate is CanAllocate as it was before the
// read-only check: try the allocation inside a savepoint and undo it.
// It is the oracle the read-only check must agree with.
func transactionalCanAllocate(s *State, a Alloc) bool {
	sp := s.Savepoint()
	err := s.Allocate(a)
	if err == nil {
		s.Rollback(sp)
	} else {
		s.Commit(sp)
	}
	return err == nil
}

// FuzzCanAllocate checks the read-only CanAllocate against the
// transactional oracle on random states and allocations: duplicate
// cells, zero and negative counts, invalid nodes and types, down nodes,
// partially allocated states and an open savepoint. CanAllocate must
// leave Hash, TotalFree and the savepoint depth as it found them.
func FuzzCanAllocate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 1, 0, 5, 1, 0, 5})                       // 3+3 V100 on node 0's four
	f.Add([]byte{0, 3, 1, 0, 2, 1, 0, 1, 1, 0, 6})              // zero and negative counts skipped
	f.Add([]byte{0, 2, 0, 0, 3, 1, 5, 3})                       // invalid node, invalid type
	f.Add([]byte{4, 1, 3, 1, 3})                                // P100 on node 2, which is down
	f.Add([]byte{48, 2, 0, 0, 2, 1, 0, 0, 2, 1, 0, 3, 2, 0, 6}) // partial, savepoint open
	f.Fuzz(func(t *testing.T, data []byte) {
		c := scriptCluster()
		s := NewState(c)
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// The header byte shapes the state: bits 0-3 mark nodes down,
		// bit 4 allocates a few random cells, bit 5 opens a savepoint.
		mode := next()
		for n := 0; n < c.NumNodes(); n++ {
			if mode&(1<<n) != 0 {
				if err := s.SetDown(n, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if mode&16 != 0 {
			for k := next() % 4; k > 0; k-- {
				_ = s.Allocate(Alloc{{Node: next() % c.NumNodes(), Type: gpu.Type(next() % int(gpu.NumTypes)), Count: 1 + next()%3}})
			}
		}
		if mode&32 != 0 {
			s.Savepoint()
		}
		a := make(Alloc, next()%5)
		for i := range a {
			a[i] = Placement{
				Node:  next()%(c.NumNodes()+2) - 1, // -1..NumNodes: both ends invalid
				Type:  gpu.Type(next() % (int(gpu.NumTypes) + 1)),
				Count: next()%7 - 2, // -2..4
			}
		}
		hash, total, depth := s.Hash(), s.TotalFree(), s.Savepoints()
		got := s.CanAllocate(a)
		if s.Hash() != hash || s.TotalFree() != total || s.Savepoints() != depth {
			t.Fatalf("CanAllocate(%v) changed the state: hash %x->%x, free %d->%d, savepoints %d->%d",
				a, hash, s.Hash(), total, s.TotalFree(), depth, s.Savepoints())
		}
		if want := transactionalCanAllocate(s, a); got != want {
			t.Fatalf("CanAllocate(%v) = %v, Allocate in a savepoint says %v", a, got, want)
		}
	})
}
