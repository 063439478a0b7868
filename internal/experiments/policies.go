package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Policy is one row of the policy table: the name a -scheduler flag
// takes and a constructor for a fresh instance. Schedulers carry
// per-run state (leases, service counters, memoization), so every run
// calls New.
type Policy struct {
	Name string
	New  func() sched.Scheduler
}

// Policies is the one name-to-policy table. Every binary's -scheduler
// flag looks its name up here, and every cross-policy test (the
// conformance matrix, the golden digests, the determinism check)
// ranges over it, so a row added here is everywhere by construction.
// Whether a policy reports dual prices is a type assertion to
// invariant.PriceReporter, not a column.
var Policies = []Policy{
	{"hadar", NewHadar},
	{"hadar-makespan", NewHadarMakespan},
	{"gavel", NewGavel},
	{"tiresias", NewTiresias},
	{"yarn-cs", NewYARNCS},
	{"ref-fifo", func() sched.Scheduler { return policy.New(policy.FIFO) }},
	{"ref-srtf", func() sched.Scheduler { return policy.New(policy.SRTF) }},
}

// LookupPolicy returns the row called name, or an error naming the
// valid choices.
func LookupPolicy(name string) (Policy, error) {
	for _, p := range Policies {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("unknown scheduler %q (want one of: %s)", name, PolicyNames())
}

// PolicyNames lists the table's names, comma-separated, for flag help.
func PolicyNames() string {
	names := make([]string, len(Policies))
	for i, p := range Policies {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// LookupCluster returns the cluster a -cluster flag names: "sim"
// (SimCluster, 60 GPUs) or "physical" (PhysicalCluster, 8 GPUs).
func LookupCluster(name string) (*cluster.Cluster, error) {
	switch name {
	case "sim":
		return SimCluster(), nil
	case "physical":
		return PhysicalCluster(), nil
	}
	return nil, fmt.Errorf("unknown cluster %q (want sim or physical)", name)
}

// FailList is a flag.Value collecting repeated -fail node:start:end
// flags (seconds) as outage windows.
type FailList []sim.Failure

// String implements flag.Value.
func (f *FailList) String() string {
	parts := make([]string, len(*f))
	for i, w := range *f {
		parts[i] = fmt.Sprintf("%d:%g:%g", w.Node, w.Start, w.End)
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value: it appends one node:start:end window.
// Whether the node exists and the window is ordered is sim.NewEngine's
// check.
func (f *FailList) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want node:start:end, got %q", s)
	}
	node, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("bad node in %q: %v", s, err)
	}
	start, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return fmt.Errorf("bad start in %q: %v", s, err)
	}
	end, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return fmt.Errorf("bad end in %q: %v", s, err)
	}
	*f = append(*f, sim.Failure{Node: node, Start: start, End: end})
	return nil
}
