package cluster

import "fmt"

// Tally checks a list of allocations against one State jointly without
// writing to it: Add accepts or rejects each allocation exactly as
// Allocate would on the state with the earlier accepted ones already
// booked, counting booked devices per (node, type) cell on the side.
// It replaces Savepoint, Allocate per allocation and Rollback when the
// caller only needs the verdict. The zero value is ready for Reset.
type Tally struct {
	s       *State
	used    []int32 // same layout as State.free
	touched []int32 // every cell Add has booked on since Reset
}

// Reset binds the tally to s and empties it. The counter table is made
// on the first Reset (and again only if s has a different shape); later
// resets clear just the cells the previous allocations touched.
func (t *Tally) Reset(s *State) {
	if len(t.used) != len(s.free) {
		t.used = make([]int32, len(s.free))
	} else {
		for _, cell := range t.touched {
			t.used[cell] = 0
		}
	}
	t.s = s
	t.touched = t.touched[:0]
}

// Add books a on the tally if Allocate would accept it on the state
// minus everything booked so far, and otherwise returns Allocate's
// error for it and books nothing: placements with counts <= 0 are
// skipped, an invalid node or type fails, and the free count a failing
// placement reports is net of the tally (and of a's own earlier
// placements on the same cell, as Allocate's in-order subtraction
// reports it).
func (t *Tally) Add(a Alloc) error {
	s := t.s
	for i, p := range a {
		if p.Count <= 0 {
			continue
		}
		var err error
		switch {
		case p.Node < 0 || p.Node >= s.c.NumNodes():
			err = fmt.Errorf("cluster: placement on invalid node %d", p.Node)
		case !p.Type.Valid():
			err = fmt.Errorf("cluster: placement with invalid type %v", p.Type)
		default:
			cell := p.Node*stride + int(p.Type)
			if left := s.free[cell] - t.used[cell]; int(left) < p.Count {
				err = fmt.Errorf("cluster: node %d has %d free %s, need %d",
					p.Node, left, p.Type, p.Count)
			} else {
				if t.used[cell] == 0 {
					t.touched = append(t.touched, int32(cell))
				}
				t.used[cell] += int32(p.Count)
				continue
			}
		}
		t.undo(a[:i])
		return err
	}
	return nil
}

// undo takes back the placements Add booked from a, all of which passed
// its checks.
func (t *Tally) undo(a Alloc) {
	for _, p := range a {
		if p.Count > 0 {
			t.used[p.Node*stride+int(p.Type)] -= int32(p.Count)
		}
	}
}
