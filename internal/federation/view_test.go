package federation

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

type idle struct{}

func (idle) Name() string                                  { return "idle" }
func (idle) Schedule(*sched.Context) map[int]cluster.Alloc { return nil }

// scanView is the routing view computed the slow way — every node,
// every type, a down-set rebuilt from the failure windows — which is
// what member.view did before it was cut to O(types + windows). It is
// the reference the fast view must equal field for field.
func scanView(m *member, idx int, j *job.Job, now float64) View {
	v := View{Index: idx, QueueDepth: m.eng.PendingJobs() + m.eng.ActiveJobs()}
	down := map[int]bool{}
	for _, fail := range m.cfg.Sim.Failures {
		if fail.Start < now+1e-9 && fail.End > now {
			down[fail.Node] = true
		}
	}
	usable := sched.UsableTypes(j)
	best, _, hasBest := j.BestType()
	for _, n := range m.cfg.Cluster.Nodes() {
		for t := gpu.Type(0); t < gpu.NumTypes; t++ {
			c := n.Capacity[t]
			for _, ut := range usable {
				if ut != t {
					continue
				}
				v.UsableTotal += c
				if !down[n.ID] {
					v.UsableUp += c
					if hasBest && t == best {
						v.BestUp += c
					}
				}
			}
		}
	}
	v.Eligible = v.UsableTotal >= j.Workers
	v.Healthy = v.UsableUp >= j.Workers
	return v
}

// TestViewMatchesNodeScan compares the O(types + windows) view with the
// node scan on random fleets, jobs and outage schedules — overlapping
// windows on one node, windows opening or closing exactly at the probed
// instant, and no windows at all.
func TestViewMatchesNodeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		fleets := make([]gpu.Fleet, 1+rng.Intn(8))
		for i := range fleets {
			fleets[i] = gpu.Fleet{}
			for typ := gpu.Type(0); typ < gpu.NumTypes; typ++ {
				if rng.Intn(3) == 0 {
					fleets[i][typ] = 1 + rng.Intn(8)
				}
			}
		}
		var fails []sim.Failure
		for k := rng.Intn(6); k > 0 && trial%4 != 0; k-- {
			start := float64(rng.Intn(10)) * 100
			fails = append(fails, sim.Failure{Node: rng.Intn(len(fleets)), Start: start, End: start + float64(1+rng.Intn(5))*100})
		}
		opts := sim.DefaultOptions()
		opts.Failures = fails
		f, err := New([]MemberConfig{{Cluster: cluster.New(fleets...), Scheduler: idle{}, Sim: opts}}, LeastQueue{})
		if err != nil {
			t.Fatal(err)
		}
		m := f.members[0]
		for probe := 0; probe < 8; probe++ {
			j := &job.Job{ID: probe, Workers: 1 + rng.Intn(12), Throughput: job.Rates{}}
			for typ := gpu.Type(0); typ < gpu.NumTypes; typ++ {
				if rng.Intn(2) == 0 {
					j.Throughput[typ] = float64(1 + rng.Intn(4)) // ties are likely
				}
			}
			now := float64(rng.Intn(16)) * 100
			var speed [gpu.NumTypes]float64
			for typ := gpu.Type(0); typ < gpu.NumTypes; typ++ {
				speed[typ] = j.Speed(typ)
			}
			got, want := m.view(0, j.Workers, &speed, now), scanView(m, 0, j, now)
			if got != want {
				t.Fatalf("trial %d: fleets %v failures %v job %v at t=%v:\n view %+v\n scan %+v",
					trial, fleets, fails, j.Throughput, now, got, want)
			}
		}
	}
}

var viewSink View

// BenchmarkView is one member's routing view on the paper's 15-node
// cluster shape, without and with failure windows.
func BenchmarkView(b *testing.B) {
	fleets := make([]gpu.Fleet, 15)
	for i := range fleets {
		fleets[i][i%int(gpu.NumTypes)] = 4
	}
	for _, windows := range []int{0, 4} {
		opts := sim.DefaultOptions()
		for k := 0; k < windows; k++ {
			opts.Failures = append(opts.Failures, sim.Failure{Node: k * 3, Start: 0, End: 1000})
		}
		f, err := New([]MemberConfig{{Cluster: cluster.New(fleets...), Scheduler: idle{}, Sim: opts}}, LeastQueue{})
		if err != nil {
			b.Fatal(err)
		}
		speed := [gpu.NumTypes]float64{3, 2, 1}
		b.Run(map[int]string{0: "no-windows", 4: "4-windows"}[windows], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				viewSink = f.members[0].view(0, 2, &speed, 500)
			}
		})
	}
}
