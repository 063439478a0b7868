package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkFederationRouteJob measures the front door's routing decision
// alone — views, eligibility filter, router pick; nothing is submitted —
// on a federation of one (the tax every single-cluster submission pays
// for having a front door) and of four, each member the paper's 15-node
// cluster carrying a 64-job backlog.
func BenchmarkFederationRouteJob(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 65
	jobs, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, members := range []int{1, 4} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			configs := make([]federation.MemberConfig, members)
			for i := range configs {
				configs[i] = federation.MemberConfig{
					Cluster:   experiments.SimCluster(),
					Scheduler: core.New(core.DefaultOptions()),
					Sim:       sim.DefaultOptions(),
				}
			}
			router, err := federation.NewRouter("least-queue")
			if err != nil {
				b.Fatal(err)
			}
			fed, err := federation.New(configs, router, federation.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for _, j := range jobs[:64] {
				if err := fed.SubmitJob(j); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 4*members; i++ {
				if err := fed.ProcessNextEvent(); err != nil {
					b.Fatal(err)
				}
			}
			probe := jobs[64]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fed.RouteJob(probe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
