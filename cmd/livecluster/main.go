// Command livecluster runs the paper's prototype architecture locally:
// it spawns RPC worker agents (one per simulated machine) on loopback
// TCP, drives them with a scheduler as the controller process, and
// replays a workload in scaled real time.
//
// Usage:
//
//	livecluster [-scheduler hadar] [-jobs 10] [-seed 7]
//	            [-timescale 36000] [-round 6] [-model-costs]
//	            [-drop 0] [-latency 0] [-chaos-seed 1]
//
// -scheduler takes any name in experiments.Policies (`livecluster -h`
// lists them). With the default timescale, one wall-clock second
// represents ten simulated hours, so the Table III workload replays in
// a few seconds while still exercising live launch/preempt/checkpoint
// RPCs.
//
// -drop and -latency inject RPC faults (a drop probability and a
// delay probability with delays up to half the call timeout) through a
// deterministic chaos transport seeded by -chaos-seed, exercising the
// controller's retry/heartbeat/recovery machinery; the fault counters
// print after the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/rpccluster"
	"repro/internal/trace"
)

func main() {
	var (
		schedName  = flag.String("scheduler", "hadar", "scheduler: "+experiments.PolicyNames())
		jobs       = flag.Int("jobs", 10, "number of prototype jobs")
		seed       = flag.Int64("seed", 7, "workload seed")
		timescale  = flag.Float64("timescale", 36000, "simulated seconds per wall-clock second")
		roundMin   = flag.Float64("round", 6, "scheduling round (simulated minutes)")
		modelCosts = flag.Bool("model-costs", true, "use Table IV checkpoint costs")
		dropProb   = flag.Float64("drop", 0, "probability an RPC is dropped (chaos injection)")
		latProb    = flag.Float64("latency", 0, "probability an RPC is delayed (chaos injection)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for the chaos transport")
	)
	flag.Parse()

	pol, err := experiments.LookupPolicy(*schedName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livecluster: %v\n", err)
		os.Exit(2)
	}
	s := pol.New()

	// The prototype fleet: 8 GPUs across four machine types.
	nodeTypes := []gpu.Type{gpu.T4, gpu.K520, gpu.K80, gpu.V100}
	var specs []rpccluster.NodeSpec
	for i, typ := range nodeTypes {
		w := rpccluster.NewWorker(i, 2, *timescale)
		h, err := rpccluster.Serve("127.0.0.1:0", w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "livecluster: %v\n", err)
			os.Exit(1)
		}
		defer h.Close()
		specs = append(specs, rpccluster.NodeSpec{Addr: h.Addr, GPU: typ, Devices: 2, Speed: 1})
		fmt.Printf("worker %d (%s x2) on %s\n", i, typ, h.Addr)
	}

	opts := rpccluster.DefaultOptions()
	opts.TimeScale = *timescale
	opts.RoundLength = *roundMin * 60
	opts.UseModelCosts = *modelCosts
	if *dropProb > 0 || *latProb > 0 {
		addrs := make([]string, len(specs))
		for i, sp := range specs {
			addrs[i] = sp.Addr
		}
		opts.CallTimeout = 100 * time.Millisecond
		inner, err := rpccluster.NewDialTransport(addrs, opts.CallTimeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "livecluster: %v\n", err)
			os.Exit(1)
		}
		opts.Transport = rpccluster.NewChaos(inner, rpccluster.ChaosOptions{
			Seed:        *chaosSeed,
			DropProb:    *dropProb,
			LatencyProb: *latProb,
			MaxLatency:  opts.CallTimeout / 2,
		})
	}
	ctl, err := rpccluster.NewController(s, specs, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livecluster: %v\n", err)
		os.Exit(1)
	}
	defer ctl.Close()

	workload := trace.PrototypeWorkload(*seed)
	if *jobs < len(workload) {
		workload = workload[:*jobs]
	}
	fmt.Printf("\nreplaying %d jobs with %s at %.0fx real time...\n\n",
		len(workload), s.Name(), *timescale)
	report, err := ctl.Run(workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livecluster: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(report)
	for _, jr := range report.Jobs {
		fmt.Printf("  job %2d %-12s W=%d  start %6.2fh  finish %6.2fh  reallocs %d\n",
			jr.ID, jr.Model, jr.Workers, jr.Start/3600, jr.Finish/3600, jr.Reallocations)
	}
	if report.Faults.Any() {
		fmt.Printf("  faults: %s\n", report.Faults)
	}
}
