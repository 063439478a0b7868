package federation

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// MemberSnapshot is one member's frozen view inside a FedSnapshot.
type MemberSnapshot struct {
	// Name labels the member; Snap is the member engine's immutable
	// share-on-publish snapshot.
	Name string        `json:"name"`
	Snap *sim.Snapshot `json:"snapshot"`
}

// FedSnapshot is an immutable point-in-time view of the whole
// federation, built from the member snapshots: every field is a value
// or an immutable member snapshot (each as cheap to publish as
// sim.Snapshot, whatever the member's history), so a published
// *FedSnapshot can be read from any goroutine without synchronization
// while the federation keeps stepping. The aggregate fields are
// sums/maxima over members; the member detail is retained for
// per-region dashboards.
type FedSnapshot struct {
	// Now is the shared clock (the furthest any member has advanced);
	// Router names the routing policy.
	Now    float64 `json:"now_s"`
	Router string  `json:"router"`
	// Members holds one snapshot per member, in member order.
	Members []MemberSnapshot `json:"members"`
	// TotalGPUs and HeldGPUs aggregate the member fleets and their
	// most recent round's held devices.
	TotalGPUs int `json:"total_gpus"`
	HeldGPUs  int `json:"held_gpus"`
	// Pending, Active, Completed, and Cancelled are federation-wide
	// job counts.
	Pending   int `json:"pending"`
	Active    int `json:"active"`
	Completed int `json:"completed"`
	Cancelled int `json:"cancelled"`
	// Digest is the federation digest: the member engine digests
	// folded in member order (see Federation.Digest).
	Digest uint64 `json:"digest"`
}

// Member returns the named member's snapshot, or nil.
func (s *FedSnapshot) Member(name string) *sim.Snapshot {
	for i := range s.Members {
		if s.Members[i].Name == name {
			return s.Members[i].Snap
		}
	}
	return nil
}

// Owner returns the member that accepted job id — its name and its
// engine's snapshot — or ("", nil) for an ID the federation never
// accepted. The owner is the one member whose Phases knows the ID, so
// the snapshot carries no owner map of its own.
func (s *FedSnapshot) Owner(id int) (member string, snap *sim.Snapshot) {
	for i := range s.Members {
		if _, ok := s.Members[i].Snap.Phases.Get(id); ok {
			return s.Members[i].Name, s.Members[i].Snap
		}
	}
	return "", nil
}

// FindJob resolves a job ID against the snapshot: the owning member's
// name, the job's lifecycle phase, its live detail when active, and
// its final result when finished. ok is false for IDs the federation
// never accepted.
func (s *FedSnapshot) FindJob(id int) (member, phase string, js *sim.JobSnapshot, res *metrics.JobResult, ok bool) {
	member, snap := s.Owner(id)
	if snap == nil {
		return "", "", nil, nil, false
	}
	for i := range snap.Active {
		if snap.Active[i].ID == id {
			js = &snap.Active[i]
			break
		}
	}
	phase, _ = snap.Phases.Get(id)
	return member, phase, js, snap.Result(id), true
}

// Snapshot publishes an immutable view of the federation. It must be
// called from the goroutine driving the federation (between steps);
// the returned value may then be shared freely.
func (f *Federation) Snapshot() *FedSnapshot {
	snap := &FedSnapshot{
		Now:     f.Now(),
		Router:  f.router.Name(),
		Digest:  f.Digest(),
		Members: make([]MemberSnapshot, len(f.members)),
	}
	for i, m := range f.members {
		ms := m.eng.Snapshot()
		snap.Members[i] = MemberSnapshot{Name: m.name, Snap: ms}
		snap.TotalGPUs += ms.TotalGPUs
		snap.HeldGPUs += ms.HeldGPUs
		snap.Pending += ms.Pending
		snap.Active += len(ms.Active)
		snap.Completed += ms.Completed
		snap.Cancelled += ms.Cancelled
	}
	return snap
}
