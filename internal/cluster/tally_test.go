package cluster

import (
	"testing"

	"repro/internal/gpu"
)

// FuzzTallyMatchesAllocate checks Tally against Allocate on a clone of
// the state, one allocation after another, on random states (down
// nodes, partial use) and random decision lists (duplicate cells within
// and across allocations, zero and negative counts, invalid nodes and
// types). Every allocation must get the same verdict and, when
// rejected, the same error text; a rejected one books nothing on
// either side, so the lists are compared to the end. Two lists run
// through one tally, so the second starts from a Reset. The tally must
// leave the state's hash and savepoint depth as it found them.
func FuzzTallyMatchesAllocate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 1, 1, 0, 5, 1, 1, 0, 5})                                      // 3+3 V100 on node 0's four, across two allocations
	f.Add([]byte{0, 1, 2, 1, 0, 5, 1, 0, 5})                                         // 3+3 within one allocation
	f.Add([]byte{0, 3, 1, 1, 0, 0, 1, 1, 0, 2, 1, 3, 1, 6})                          // negative, zero and over-large counts
	f.Add([]byte{0, 3, 1, 5, 0, 3, 1, 1, 5, 3, 1, 0, 0, 3})                          // invalid nodes, invalid type
	f.Add([]byte{4, 1, 1, 3, 1, 3})                                                  // P100 on node 2, which is down
	f.Add([]byte{16, 2, 0, 0, 2, 1, 0, 0, 2, 1, 1, 0, 3, 1, 1, 0, 3, 1, 1, 1, 0, 3}) // partial use, then a reset
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
		// bit 4 allocates a few random cells.
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
		hash, depth := s.Hash(), s.Savepoints()
		var tally Tally
		for list := 0; list < 2; list++ {
			decisions := make([]Alloc, next()%6)
			for i := range decisions {
				decisions[i] = make(Alloc, next()%4)
				for k := range decisions[i] {
					decisions[i][k] = Placement{
						Node:  next()%(c.NumNodes()+2) - 1, // -1..NumNodes: both ends invalid
						Type:  gpu.Type(next() % (int(gpu.NumTypes) + 1)),
						Count: next()%7 - 2, // -2..4
					}
				}
			}
			clone := s.Clone()
			tally.Reset(s)
			for i, a := range decisions {
				want := clone.Allocate(a)
				got := tally.Add(a)
				if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
					t.Fatalf("list %d, allocation %d of %v: tally says %v, Allocate says %v", list, i, decisions, got, want)
				}
			}
			if s.Hash() != hash || s.Savepoints() != depth {
				t.Fatalf("the tally changed the state: hash %x->%x, savepoints %d->%d", hash, s.Hash(), depth, s.Savepoints())
			}
		}
	})
}
