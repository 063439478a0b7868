package sim_test

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExampleRun schedules a small synthetic workload on a heterogeneous
// GPU cluster with Hadar and prints the headline metrics.
func ExampleRun() {
	// 1. Describe the cluster: six machines, three accelerator types
	// (large enough for the trace's 16-worker gangs).
	clus := cluster.New(
		gpu.Fleet{gpu.V100: 8}, gpu.Fleet{gpu.V100: 8},
		gpu.Fleet{gpu.P100: 8}, gpu.Fleet{gpu.P100: 8},
		gpu.Fleet{gpu.K80: 8}, gpu.Fleet{gpu.K80: 8},
	)

	// 2. Synthesize a 32-job trace following the paper's Philly-like
	// recipe (Table II models, heavy-tailed GPU-hour buckets).
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 32
	cfg.Seed = 42
	jobs, err := trace.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Build the Hadar scheduler with its default (average-JCT)
	// objective and run the round-based simulation.
	scheduler := core.New(core.DefaultOptions())
	report, err := sim.Run(clus, jobs, scheduler, sim.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// 4. Inspect the results.
	fmt.Println(report)
	fmt.Printf("completed %d jobs on %s\n", len(report.Jobs), clus)
	fmt.Printf("avg queue delay %.1f min, %.1f%% of job-rounds reallocated\n",
		report.AvgQueueDelay()/60, 100*report.ReallocationFraction())
	fmt.Printf("competitive-ratio factor alpha of the last round: %.2f (Hadar is 2*alpha-competitive)\n",
		scheduler.LastAlpha())

	fmt.Println("\nfirst five completions:")
	for i, j := range report.Jobs {
		if i == 5 {
			break
		}
		fmt.Printf("  job %2d (%s, %d workers): waited %5.1f min, ran %6.1f min, JCT %6.1f min\n",
			j.ID, j.Model, j.Workers, j.QueueDelay()/60, (j.Finish-j.Start)/60, j.JCT()/60)
	}
	// Output:
	// hadar: 32 jobs, avgJCT=24.03h medJCT=10.65h makespan=110.87h util=99.5% FTF=0.86
	// completed 32 jobs on cluster[6 nodes, {V100:16 P100:16 K80:16}]
	// avg queue delay 111.8 min, 1.9% of job-rounds reallocated
	// competitive-ratio factor alpha of the last round: 9.57 (Hadar is 2*alpha-competitive)
	//
	// first five completions:
	//   job  0 (CycleGAN, 1 workers): waited   6.0 min, ran  402.2 min, JCT  408.2 min
	//   job  1 (ResNet-50, 1 workers): waited 456.0 min, ran 6195.9 min, JCT 6651.9 min
	//   job  2 (ResNet-18, 1 workers): waited   0.0 min, ran   51.2 min, JCT   51.2 min
	//   job  3 (ResNet-50, 2 workers): waited 456.0 min, ran 3095.4 min, JCT 3551.4 min
	//   job  4 (ResNet-18, 16 workers): waited   0.0 min, ran    3.7 min, JCT    3.7 min
}

// ExampleEngine is online operation under Poisson arrivals, the paper's
// "continuous trace" setting, including a straggler machine. Jobs
// arrive over several hours; Hadar prices resources round by round,
// admits jobs by payoff, and steers work away from the slow node.
//
// Unlike Run, this drives the steppable engine directly: jobs are
// submitted mid-run as their arrival times come due (the way a real
// front door sees them, not as a pre-sorted trace), and immutable
// cluster snapshots are read between steps to print a live utilization
// timeline.
func ExampleEngine() {
	clus := experiments.SimCluster()
	// Inject a straggler: node 0 (four V100s) runs at 40% speed, e.g. a
	// thermally-throttled machine. Hadar's rate model sees the slowdown
	// and avoids the node when faster capacity exists.
	clus.SetSpeed(0, 0.4)

	cfg := trace.DefaultConfig()
	cfg.NumJobs = 64
	cfg.Seed = 5
	cfg.Pattern = trace.Poisson
	cfg.Rate = 40.0 / 3600 // 40 jobs/hour
	jobs, err := trace.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %s (node 0 is a 0.4x straggler)\n", clus)
	fmt.Printf("workload: %d jobs, Poisson arrivals at 40 jobs/hour\n\n", len(jobs))

	eng, err := sim.NewEngine(clus, core.New(core.DefaultOptions()), sim.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Online arrivals: hold the trace outside the engine and submit each
	// job only once simulated time reaches it, exactly what a long-lived
	// scheduler service sees. The engine never learns about a job before
	// the job "exists".
	backlog := append([]*job.Job(nil), jobs...)
	submitDue := func(now float64) {
		for len(backlog) > 0 && backlog[0].Arrival <= now {
			if err := eng.SubmitJob(backlog[0]); err != nil {
				log.Fatal(err)
			}
			backlog = backlog[1:]
		}
	}

	fmt.Println("live timeline (read from engine snapshots between steps):")
	submitDue(0)
	nextStatus := 0
	for eng.HasPendingEvents() || len(backlog) > 0 {
		if !eng.HasPendingEvents() {
			// Queue drained but jobs are still to come: hand the engine
			// the next arrival so it can jump the gap instead of
			// spinning through empty rounds.
			submitDue(backlog[0].Arrival)
			continue
		}
		if err := eng.ProcessNextEvent(); err != nil {
			log.Fatal(err)
		}
		submitDue(eng.Now())

		// Snapshots are immutable copies: cheap to take mid-run and safe
		// to keep while the engine advances underneath.
		if snap := eng.Snapshot(); snap.Round >= nextStatus {
			fmt.Printf("  t=%5.1fh  round %3d  active %2d  pending %2d  done %2d  free %2d/%2d GPUs\n",
				snap.Now/3600, snap.Round, len(snap.Active), snap.Pending,
				snap.Completed, snap.TotalGPUs-snap.HeldGPUs, snap.TotalGPUs)
			nextStatus += 20
		}
	}
	report, err := eng.Finish()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println(report)
	fmt.Printf("avg queue delay: %.1f min\n", report.AvgQueueDelay()/60)
	fmt.Printf("JCT band: min %.2fh / median %.2fh / max %.2fh\n",
		report.MinJCT()/3600, report.MedianJCT()/3600, report.MaxJCT()/3600)

	// Completion timeline, like one Fig. 3b series.
	fmt.Println("\ncompletion timeline:")
	for i := 1; i <= 8; i++ {
		t := report.Makespan * float64(i) / 8
		fmt.Printf("  t=%6.1fh  %5.1f%% of jobs done\n", t/3600, 100*report.CompletionAt(t))
	}
	// Output:
	// cluster: cluster[15 nodes, {V100:20 P100:20 K80:20}] (node 0 is a 0.4x straggler)
	// workload: 64 jobs, Poisson arrivals at 40 jobs/hour
	//
	// live timeline (read from engine snapshots between steps):
	//   t=  0.1h  round   1  active  0  pending 10  done  0  free 60/60 GPUs
	//   t=  2.0h  round  20  active 49  pending  0  done 15  free  0/60 GPUs
	//   t=  4.0h  round  40  active 42  pending  0  done 22  free  0/60 GPUs
	//   t=  6.0h  round  60  active 39  pending  0  done 25  free  0/60 GPUs
	//   t=  8.0h  round  80  active 38  pending  0  done 26  free  0/60 GPUs
	//   t= 10.0h  round 100  active 35  pending  0  done 29  free  0/60 GPUs
	//   t= 12.0h  round 120  active 35  pending  0  done 29  free  0/60 GPUs
	//   t= 14.0h  round 140  active 32  pending  0  done 32  free  0/60 GPUs
	//   t= 16.0h  round 160  active 31  pending  0  done 33  free  0/60 GPUs
	//   t= 18.0h  round 180  active 29  pending  0  done 35  free  0/60 GPUs
	//   t= 20.0h  round 200  active 29  pending  0  done 35  free  0/60 GPUs
	//   t= 22.0h  round 220  active 25  pending  0  done 39  free  6/60 GPUs
	//   t= 24.0h  round 240  active 24  pending  0  done 40  free  7/60 GPUs
	//   t= 26.0h  round 260  active 23  pending  0  done 41  free 15/60 GPUs
	//   t= 28.0h  round 280  active 22  pending  0  done 42  free 19/60 GPUs
	//   t= 30.0h  round 300  active 21  pending  0  done 43  free 23/60 GPUs
	//   t= 32.0h  round 320  active 21  pending  0  done 43  free 23/60 GPUs
	//   t= 34.0h  round 340  active 20  pending  0  done 44  free 25/60 GPUs
	//   t= 36.0h  round 360  active 19  pending  0  done 45  free 29/60 GPUs
	//   t= 38.0h  round 380  active 18  pending  0  done 46  free 30/60 GPUs
	//   t= 40.0h  round 400  active 17  pending  0  done 47  free 32/60 GPUs
	//   t= 42.0h  round 420  active 17  pending  0  done 47  free 32/60 GPUs
	//   t= 44.0h  round 440  active 17  pending  0  done 47  free 32/60 GPUs
	//   t= 46.0h  round 460  active 16  pending  0  done 48  free 36/60 GPUs
	//   t= 48.0h  round 480  active 15  pending  0  done 49  free 38/60 GPUs
	//   t= 50.0h  round 500  active 14  pending  0  done 50  free 40/60 GPUs
	//   t= 52.0h  round 520  active 14  pending  0  done 50  free 40/60 GPUs
	//   t= 54.0h  round 540  active 13  pending  0  done 51  free 41/60 GPUs
	//   t= 56.0h  round 560  active 13  pending  0  done 51  free 41/60 GPUs
	//   t= 58.0h  round 580  active 12  pending  0  done 52  free 45/60 GPUs
	//   t= 60.0h  round 600  active 12  pending  0  done 52  free 45/60 GPUs
	//   t= 62.0h  round 620  active 12  pending  0  done 52  free 45/60 GPUs
	//   t= 64.0h  round 640  active 12  pending  0  done 52  free 45/60 GPUs
	//   t= 66.0h  round 660  active 11  pending  0  done 53  free 47/60 GPUs
	//   t= 68.0h  round 680  active 11  pending  0  done 53  free 47/60 GPUs
	//   t= 70.0h  round 700  active  9  pending  0  done 55  free 49/60 GPUs
	//   t= 72.0h  round 720  active  9  pending  0  done 55  free 49/60 GPUs
	//   t= 74.0h  round 740  active  9  pending  0  done 55  free 49/60 GPUs
	//   t= 76.0h  round 760  active  8  pending  0  done 56  free 50/60 GPUs
	//   t= 78.0h  round 780  active  8  pending  0  done 56  free 50/60 GPUs
	//   t= 80.0h  round 800  active  8  pending  0  done 56  free 50/60 GPUs
	//   t= 82.0h  round 820  active  8  pending  0  done 56  free 50/60 GPUs
	//   t= 84.0h  round 840  active  7  pending  0  done 57  free 52/60 GPUs
	//   t= 86.0h  round 860  active  7  pending  0  done 57  free 52/60 GPUs
	//   t= 88.0h  round 880  active  7  pending  0  done 57  free 52/60 GPUs
	//   t= 90.0h  round 900  active  5  pending  0  done 59  free 54/60 GPUs
	//   t= 92.0h  round 920  active  5  pending  0  done 59  free 54/60 GPUs
	//   t= 94.0h  round 940  active  5  pending  0  done 59  free 54/60 GPUs
	//   t= 96.0h  round 960  active  3  pending  0  done 61  free 57/60 GPUs
	//   t= 98.0h  round 980  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=100.0h  round 1000  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=102.0h  round 1020  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=104.0h  round 1040  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=106.0h  round 1060  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=108.0h  round 1080  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=110.0h  round 1100  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=112.0h  round 1120  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=114.0h  round 1140  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=116.0h  round 1160  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=118.0h  round 1180  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=120.0h  round 1200  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=122.0h  round 1220  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=124.0h  round 1240  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=126.0h  round 1260  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=128.0h  round 1280  active  3  pending  0  done 61  free 57/60 GPUs
	//   t=130.0h  round 1300  active  2  pending  0  done 62  free 58/60 GPUs
	//   t=132.0h  round 1320  active  2  pending  0  done 62  free 58/60 GPUs
	//   t=134.0h  round 1340  active  1  pending  0  done 63  free 59/60 GPUs
	//   t=136.0h  round 1360  active  1  pending  0  done 63  free 59/60 GPUs
	//   t=138.0h  round 1380  active  1  pending  0  done 63  free 59/60 GPUs
	//   t=140.0h  round 1400  active  1  pending  0  done 63  free 59/60 GPUs
	//   t=142.0h  round 1420  active  1  pending  0  done 63  free 59/60 GPUs
	//   t=144.0h  round 1440  active  1  pending  0  done 63  free 59/60 GPUs
	//   t=146.0h  round 1460  active  1  pending  0  done 63  free 59/60 GPUs
	//   t=148.0h  round 1480  active  1  pending  0  done 63  free 59/60 GPUs
	//   t=150.0h  round 1500  active  1  pending  0  done 63  free 59/60 GPUs
	//   t=152.0h  round 1520  active  0  pending  0  done 64  free 59/60 GPUs
	//
	// hadar: 64 jobs, avgJCT=28.75h medJCT=13.90h makespan=151.95h util=99.4% FTF=0.98
	// avg queue delay: 180.6 min
	// JCT band: min 0.09h / median 13.90h / max 151.29h
	//
	// completion timeline:
	//   t=  19.0h   54.7% of jobs done
	//   t=  38.0h   71.9% of jobs done
	//   t=  57.0h   79.7% of jobs done
	//   t=  76.0h   87.5% of jobs done
	//   t=  95.0h   95.3% of jobs done
	//   t= 114.0h   95.3% of jobs done
	//   t= 133.0h   96.9% of jobs done
	//   t= 151.9h  100.0% of jobs done
}

// ExampleReadEvents is robustness under machine outages. A five-node
// V100 rack loses one node for several hours mid-run; the simulator
// hides the node from the scheduler, kills the round in progress on
// it, and Hadar re-places the affected gangs from their checkpoints.
// The event log, read back with ReadEvents, shows the recovery play by
// play.
func ExampleReadEvents() {
	clus := cluster.Merge(
		cluster.Homogeneous(5, gpu.V100, 4),
		cluster.Homogeneous(3, gpu.P100, 4),
	)
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 24
	cfg.Seed = 13
	cfg.WorkerChoices = []int{1, 2, 4}
	cfg.WorkerWeights = []float64{0.5, 0.3, 0.2}
	jobs, err := trace.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	run := func(failures []sim.Failure, events *bytes.Buffer) float64 {
		opts := sim.DefaultOptions()
		opts.Failures = failures
		if events != nil {
			opts.EventLog = events
		}
		report, err := sim.Run(clus, jobs, core.New(core.DefaultOptions()), opts)
		if err != nil {
			log.Fatal(err)
		}
		return report.AvgJCT()
	}

	clean := run(nil, nil)
	var events bytes.Buffer
	// Node 2 (four V100s) dies 2 hours in, for 6 hours.
	outage := []sim.Failure{{Node: 2, Start: 2 * 3600, End: 8 * 3600}}
	faulty := run(outage, &events)

	fmt.Printf("cluster: %s\n", clus)
	fmt.Printf("avg JCT without outage: %.2f h\n", clean/3600)
	fmt.Printf("avg JCT with 6h outage: %.2f h (+%.1f%%)\n",
		faulty/3600, 100*(faulty-clean)/clean)

	parsed, err := sim.ReadEvents(&events)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noutage-window events:")
	shown := 0
	for _, e := range parsed {
		if e.Type == sim.EventNodeDown || e.Type == sim.EventNodeUp ||
			(e.Type == sim.EventRealloc && e.Time >= 2*3600 && e.Time <= 9*3600) {
			// A node event has no allocation; trim the empty field.
			line := fmt.Sprintf("  t=%6.2fh round=%3d %-10s job=%d node=%d %s",
				e.Time/3600, e.Round, e.Type, e.Job, e.Node, e.Alloc)
			fmt.Println(strings.TrimRight(line, " "))
			shown++
			if shown >= 15 {
				fmt.Println("  ...")
				break
			}
		}
	}
	// Output:
	// cluster: cluster[8 nodes, {V100:20 P100:12}]
	// avg JCT without outage: 27.75 h
	// avg JCT with 6h outage: 28.05 h (+1.1%)
	//
	// outage-window events:
	//   t=  2.00h round= 20 node_down  job=-1 node=2
	//   t=  2.00h round= 20 realloc    job=6 node=-1 [n4:V100x1]
	//   t=  2.00h round= 20 realloc    job=7 node=-1 [n4:V100x1]
	//   t=  2.00h round= 20 realloc    job=10 node=-1 [n1:V100x1]
	//   t=  2.00h round= 20 realloc    job=13 node=-1 [n5:P100x2]
	//   t=  2.00h round= 20 realloc    job=14 node=-1 [n6:P100x4]
	//   t=  2.00h round= 20 realloc    job=16 node=-1 [n5:P100x2]
	//   t=  2.00h round= 20 realloc    job=18 node=-1 [n0:V100x4]
	//   t=  2.60h round= 26 realloc    job=1 node=-1 [n0:V100x1]
	//   t=  2.60h round= 26 realloc    job=6 node=-1 [n1:V100x1]
	//   t=  2.60h round= 26 realloc    job=7 node=-1 [n0:V100x1]
	//   t=  2.60h round= 26 realloc    job=13 node=-1 [n0:V100x2]
	//   t=  2.60h round= 26 realloc    job=16 node=-1 [n4:V100x2]
	//   t=  8.00h round= 80 node_up    job=-1 node=2
	//   t=  8.00h round= 80 realloc    job=13 node=-1 [n1:V100x2]
	//   ...
}
