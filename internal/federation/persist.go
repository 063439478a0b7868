package federation

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// State is a federation's serialized scheduling state, the payload of a
// service checkpoint. Ownership is not stored: a job belongs to the
// member whose section lists it.
type State struct {
	// Members holds one sim.Engine.MarshalState section per member, in
	// member order.
	Members []json.RawMessage `json:"members"`
	// Next is the routing cursor.
	Next int `json:"next,omitempty"`
}

// Punctuation spliced between member sections.
var (
	membersOpen = []byte(`"members":[`)
	comma       = []byte(",")
	membersEnd  = []byte("]")
	objectEnd   = []byte("}")
)

// AppendState appends the federation's serialized state to parts as
// the members of a JSON object and its closing brace: "members", one
// sim.Engine.AppendState section per member, then "next" unless the
// cursor is 0. The caller has written the object's opening, so a
// checkpoint can put members of its own first; after a bare "{" the
// parts' concatenation is the JSON of a State. Call it from the driving
// goroutine, between steps, on a healthy federation (as
// Engine.AppendState).
func (f *Federation) AppendState(parts [][]byte) ([][]byte, error) {
	if f.err != nil {
		return nil, fmt.Errorf("federation: cannot checkpoint a failed federation: %w", f.err)
	}
	parts = append(parts, membersOpen)
	for i, m := range f.members {
		if i > 0 {
			parts = append(parts, comma)
		}
		var err error
		if parts, err = m.eng.AppendState(parts); err != nil {
			return nil, fmt.Errorf("federation: member %s: %w", m.name, err)
		}
	}
	parts = append(parts, membersEnd)
	if f.next != 0 {
		parts = append(parts, strconv.AppendInt([]byte(`,"next":`), int64(f.next), 10))
	}
	return append(parts, objectEnd), nil
}

// RestoreState replaces the engines of a federation nothing has been
// submitted to with engines rebuilt from AppendState output — member i
// from section i, through sim.RestoreEngine with that member's own
// cluster, scheduler and options — and rebuilds ownership from the jobs
// each restored engine knows. A state that does not fit is refused and
// poisons the federation, which may be half restored by then. The
// invariant watermark (completed work at the last audit) restarts at
// zero: it only asserts that work never shrinks between audits.
func (f *Federation) RestoreState(st State) error {
	if len(f.jobs) > 0 {
		return fmt.Errorf("federation: restore into a federation that already holds %d jobs", len(f.jobs))
	}
	if len(st.Members) != len(f.members) {
		return f.fail(fmt.Errorf("federation: restore: state has %d member sections, this federation %d members",
			len(st.Members), len(f.members)))
	}
	if st.Next < 0 || st.Next > len(f.members) {
		return f.fail(fmt.Errorf("federation: restore: routing cursor %d outside [0, %d]", st.Next, len(f.members)))
	}
	for i, m := range f.members {
		eng, err := sim.RestoreEngine(m.cfg.Cluster, m.cfg.Scheduler, m.cfg.Sim, st.Members[i])
		if err != nil {
			return f.fail(fmt.Errorf("federation: restore member %s: %w", m.name, err))
		}
		m.eng = eng
		for _, j := range eng.Jobs() {
			if prev, dup := f.owner[j.ID]; dup {
				return f.fail(fmt.Errorf("federation: restore: job %d is in the sections of both %s and %s",
					j.ID, f.members[prev].name, m.name))
			}
			f.owner[j.ID] = i
			f.jobs = append(f.jobs, j)
		}
	}
	f.next = st.Next
	return nil
}
