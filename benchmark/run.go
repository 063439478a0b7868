package benchmark

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Config selects one run: one workload, one seed, timed or traced.
type Config struct {
	Workload Workload
	Seed     int64
	// Seconds is how long the repetitions of one run measure for; a
	// run makes at least minReps repetitions however long they take.
	Seconds float64
	// Reps, when positive, fixes the number of repetitions and
	// overrides Seconds.
	Reps int
	// Trace selects the traced pass: spans on, decorator on, probes
	// after the repetitions, per-layer metrics out.
	Trace bool
	// OutDir receives the span file and holds the journal directories
	// while a durable workload runs.
	OutDir string
}

// warmupDiv is the size divisor of the discarded warm-up pass.
const warmupDiv = 10

// minReps is the floor on timed repetitions in a run.
const minReps = 3

// A run times set-ups one by one — one before every repetition, then
// more until it has spent setupBudget on them (at least minSetups, at
// most maxSetups) — and reports the median over samples of about
// setupSampleSpan of consecutive set-ups each. A single set-up of the
// paper workload takes 0.2 ms when no collection is running and 0.35 ms
// when one is, about half the time each, so the median of single
// set-ups flips between the two; a sample that spans several
// collections does not.
const (
	minSetups       = 5
	maxSetups       = 4000
	setupBudget     = 500 * time.Millisecond
	setupSampleSpan = 10 * time.Millisecond
)

// moreSetups reports whether a run that has timed the given set-ups
// times another.
func moreSetups(times []float64) bool {
	spent := 0.0
	for _, s := range times {
		spent += s
	}
	return len(times) < minSetups || (len(times) < maxSetups && spent < setupBudget.Seconds())
}

// setupSamples groups consecutive set-up times into samples of about
// setupSampleSpan each (at least minSetups of them) and returns each
// sample's mean.
func setupSamples(times []float64) []float64 {
	batch := int(setupSampleSpan.Seconds()/median(times)) + 1
	batch = max(1, min(batch, len(times)/minSetups))
	var samples []float64
	for i := 0; i+batch <= len(times); i += batch {
		sum := 0.0
		for _, s := range times[i : i+batch] {
			sum += s
		}
		samples = append(samples, sum/float64(batch))
	}
	return samples
}

// goldenPaperDigest is Engine.Digest() of the 480-job paper trace at
// generator seed 1 under Hadar, as pinned by the repository's
// determinism_test.go.
const goldenPaperDigest = 0x7c16584a99c62b3b

// Result is what one run reports.
type Result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Error says what the correctness gate found, when it found
	// something.
	Error string `json:"error,omitempty"`
	// Identity is what must repeat exactly on this commit and seed: a
	// sim's digest, rounds and completions, a service's admission
	// counts.
	Identity string            `json:"identity"`
	Reps     int               `json:"reps"`
	Metrics  map[string]Sample `json:"metrics"`
}

// more reports whether a run that has made done repetitions, the last
// one taking last, and has measured for elapsed, makes another.
func (c Config) more(done int, elapsed, last time.Duration) bool {
	if c.Reps > 0 {
		return done < c.Reps
	}
	floor := minReps
	if c.Trace {
		floor = 1 // a traced pass is a pair: one plain, one traced repetition
	}
	if done < floor {
		return true
	}
	return (elapsed + last/2).Seconds() <= c.Seconds
}

// Run executes one run and applies the correctness gate. The error is
// for a harness that could not run at all; wrong outputs come back as
// Result.Correct == false with every operation counted as failed.
func Run(cfg Config) (*Result, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	res := &Result{Workload: cfg.Workload.Name, Seed: cfg.Seed, Traced: cfg.Trace, Metrics: map[string]Sample{}}
	var gate error
	var err error
	if cfg.Workload.Service {
		gate, err = runSvc(cfg, res)
	} else {
		gate, err = runSim(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.fail(gate)
	return res, nil
}

// fail applies the correctness gate's verdict: a run with a wrong
// output counts every operation it attempted as failed.
func (r *Result) fail(gate error) {
	r.Correct = gate == nil
	if gate != nil {
		r.Error = gate.Error()
		r.Failed = r.Attempted
	}
}

// gateErr keeps the first correctness failure.
func gateErr(gate *error, err error) {
	if *gate == nil {
		*gate = err
	}
}

func runSim(cfg Config, res *Result) (gate, err error) {
	w := cfg.Workload
	traceSeed, err := w.traceSeedFor(cfg.Seed)
	if err != nil {
		return nil, err
	}
	warm := w.Shrunk(warmupDiv)
	if r, err := warm.setupSim(cfg.Seed, sim.DefaultOptions(), nil); err != nil {
		return nil, err
	} else if _, err := r.run(nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var setups []float64
	timedSetup := func(tr *Tracer) (*simRun, error) {
		s := time.Now()
		r, err := w.setupSim(traceSeed, sim.DefaultOptions(), tr)
		setups = append(setups, time.Since(s).Seconds())
		return r, err
	}
	var plain, traced []simRep
	var lastRun *simRun
	var lastTracer *Tracer
	began := time.Now()
	for done := 0; cfg.more(done, time.Since(began), lastWall(plain)); done++ {
		r, err := timedSetup(nil)
		if err != nil {
			return nil, err
		}
		rep, err := r.run(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, rep)
		if cfg.Trace {
			tr := NewTracer(len(r.jobs) + 2*len(rep.stepUS) + 64)
			r, err := timedSetup(tr)
			if err != nil {
				return nil, err
			}
			rep, err := r.run(tr)
			if err != nil {
				return nil, err
			}
			traced = append(traced, rep)
			lastRun, lastTracer = r, tr
		}
	}
	rss := peakRSSMB()
	for moreSetups(setups) {
		if _, err := timedSetup(nil); err != nil {
			return nil, err
		}
	}

	all := append(append([]simRep(nil), plain...), traced...)
	for _, rep := range all {
		res.Attempted += w.Jobs + rep.rounds
	}
	res.Reps = len(plain)
	res.Identity = all[0].identity()
	// One run with the invariant oracle on, off the clock, must reach
	// the same schedule.
	var validated simRep
	r, err := w.setupSim(traceSeed, sim.ValidatedOptions(), nil)
	if err == nil {
		validated, err = r.run(nil)
	}
	gate = simGate(w, cfg.Seed, all, validated, err)

	if !cfg.Trace {
		endToEnd(res, setups, timedReps(plain), rss)
		return gate, nil
	}

	out, err := simLayers(w, traceSeed, lastRun, traced[len(traced)-1], lastTracer)
	if err != nil {
		return nil, err
	}
	out["bench.trace_overhead_pct"] = overheadPct(wallsOf(plain), wallsOf(traced))
	perLayer(res, out)
	return gate, lastTracer.WriteFile(filepath.Join(cfg.OutDir, w.Name+".trace.json"), w.Name, cfg.Seed)
}

// simGate is the sim workloads' correctness gate: every repetition
// completed every job without a scheduler inconsistency and reached the
// same digest, round count and completion count; so did the run with
// the invariant oracle on; and the paper trace at seed 1 reached the
// digest the repository's golden test pins.
func simGate(w Workload, seed int64, reps []simRep, validated simRep, validatedErr error) error {
	first := reps[0]
	for _, rep := range reps {
		switch {
		case rep.identity() != first.identity():
			return fmt.Errorf("repetitions disagree: %s vs %s", first.identity(), rep.identity())
		case rep.completed != w.Jobs:
			return fmt.Errorf("%d of %d jobs completed", rep.completed, w.Jobs)
		case rep.inconsistencies != 0:
			return fmt.Errorf("scheduler recorded %d internal inconsistencies", rep.inconsistencies)
		}
	}
	if validatedErr != nil {
		return fmt.Errorf("validated run: %w", validatedErr)
	}
	if validated.identity() != first.identity() {
		return fmt.Errorf("validated run disagrees: %s vs %s", validated.identity(), first.identity())
	}
	if w.Name == "sim-paper-480" && w.Jobs == 480 && seed == 1 && first.digest != goldenPaperDigest {
		return fmt.Errorf("paper trace digest %#x, golden %#x", first.digest, uint64(goldenPaperDigest))
	}
	return nil
}

// assembledOps returns the op latencies of the run put together from,
// for each segment of the op phase, the repetition that was fastest
// through it; nil when the repetitions do not line up.
func assembledOps(reps []timedRep) []float64 {
	n := len(reps[0].opUS)
	size := max((n+segmentsPerPhase-1)/segmentsPerPhase, 1)
	var ops []float64
	for seg, lo := 0, 0; lo < n; seg, lo = seg+1, lo+size {
		best := reps[0]
		for _, r := range reps {
			if len(r.opUS) != n || seg >= len(r.opsSegS) {
				return nil
			}
			if r.opsSegS[seg] < best.opsSegS[seg] {
				best = r
			}
		}
		ops = append(ops, best.opUS[lo:min(lo+size, n)]...)
	}
	return ops
}

func timedReps[R interface{ timed() timedRep }](reps []R) []timedRep {
	out := make([]timedRep, len(reps))
	for i, r := range reps {
		out[i] = r.timed()
	}
	return out
}

func lastWall[R interface{ wallS() float64 }](reps []R) time.Duration {
	if len(reps) == 0 {
		return 0
	}
	return time.Duration(reps[len(reps)-1].wallS() * float64(time.Second))
}

func wallsOf[R interface{ wallS() float64 }](reps []R) []float64 {
	walls := make([]float64, len(reps))
	for i, r := range reps {
		walls[i] = r.wallS()
	}
	return walls
}

// overheadPct is the traced repetitions' median wall over the plain
// repetitions' median wall, as a percentage above 100.
func overheadPct(plain, traced []float64) float64 {
	return (median(traced)/median(plain) - 1) * 100
}

// segmentsPerPhase is how many equal-work segments a phase of a
// repetition (a sim's ingest and round loop, a service's submit phase)
// is cut into.
const segmentsPerPhase = 32

// timedRep is what the end-to-end metrics need of one repetition. The
// repetitions of a run do the same work in the same order — the same
// rounds, the same submissions — so the i-th segment and the i-th op
// of one repetition can be compared with the i-th of another.
type timedRep struct {
	// wallSegS are the durations of every segment of the timed region,
	// in order, in seconds; opsSegS those of the phase the ops are made
	// in.
	wallSegS, opsSegS []float64
	ops               int
	// opUS is the latency of each op, 0 where an op has none (a
	// duplicate POST is not an accepted one).
	opUS    []float64
	allocMB float64
}

// endToEnd fills in the end-to-end metrics. Set-up time is the median
// of its samples (see setupSamples), allocation the lowest of the
// repetitions, the resident-set peak as read. The three timings are put
// together from the fastest instance of each part: wall_s is the sum
// over the segments of the fastest time any repetition took for that
// segment, ops_per_s the ops over the same sum for the op phase, and
// op_p50_us the median op latency of the run assembled from, for each
// segment, the repetition that was fastest through it.
//
// The acceptance sandbox is why. Its noise is bursts of tens of
// milliseconds to seconds in which everything runs up to half again as
// slow, often enough that in a bad hour no whole repetition escapes
// them: over eight runs of sim-paper-480 in such an hour the best whole
// repetition spread (interquartile over median) by 15 %, the median
// repetition by 14 %, the sum of fastest segments by 2.8 % — and it
// landed within 3 % of what a calm hour measures. A burst only ever adds
// time, so the fastest instance of a segment is the best estimate of
// what the program itself costs there. Thirty-two segments a phase keep
// each one long enough (30 ms and more) to contain its share of garbage
// collection; taking the minimum per op instead would pick the
// collector (and on a service the engine's round in progress) out.
func endToEnd(res *Result, setups []float64, reps []timedRep, rssMB float64) {
	var wallSegs, opsSegs [][]float64
	var wall, ops, p50, alloc []float64
	for _, r := range reps {
		wallSegs, opsSegs = append(wallSegs, r.wallSegS), append(opsSegs, r.opsSegS)
		wall = append(wall, sum(r.wallSegS))
		ops = append(ops, float64(r.ops)/sum(r.opsSegS))
		p50 = append(p50, median(positive(r.opUS)))
		alloc = append(alloc, r.allocMB)
	}
	for _, d := range EndToEnd {
		var s Sample
		switch d.Name {
		case "setup_s":
			s = medianOf(d.Unit, setupSamples(setups))
		case "peak_rss_mb":
			s = Sample{Value: rssMB, Unit: d.Unit, N: 1}
		case "alloc_mb":
			s = bestOf(d, alloc)
		case "wall_s":
			s = bestOf(d, wall)
			if best := fastestOf(wallSegs); best != nil {
				s = composite(d, sum(best), wall)
			}
		case "ops_per_s":
			s = bestOf(d, ops)
			if best := fastestOf(opsSegs); best != nil {
				s = composite(d, float64(reps[0].ops)/sum(best), ops)
			}
		case "op_p50_us":
			s = bestOf(d, p50)
			if ops := assembledOps(reps); ops != nil {
				s = composite(d, median(positive(ops)), p50)
			}
		}
		res.Metrics[d.Name] = s
	}
}

func runSvc(cfg Config, res *Result) (gate, err error) {
	w := cfg.Workload
	warm := w.Shrunk(warmupDiv)
	if r, err := warm.setupSvc(cfg.Seed, cfg.OutDir, nil); err != nil {
		return nil, err
	} else {
		_, err := r.run(nil)
		r.cleanup()
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	var setups []float64
	timedSetup := func(tr *Tracer) (*svcRun, error) {
		s := time.Now()
		r, err := w.setupSvc(cfg.Seed, cfg.OutDir, tr)
		setups = append(setups, time.Since(s).Seconds())
		return r, err
	}
	var plain, traced []svcRep
	var lastRun *svcRun
	var lastTracer *Tracer
	defer func() {
		if lastRun != nil {
			lastRun.cleanup()
		}
	}()
	oneRep := func(tr *Tracer, keep bool) (svcRep, error) {
		r, err := timedSetup(tr)
		if err != nil {
			return svcRep{}, err
		}
		rep, runErr := r.run(tr)
		if keep {
			if lastRun != nil {
				lastRun.cleanup()
			}
			lastRun, lastTracer = r, tr
		} else {
			r.cleanup()
		}
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		if runErr != nil {
			gateErr(&gate, runErr)
		}
		if rep.inconsistencies != 0 {
			gateErr(&gate, fmt.Errorf("scheduler recorded %d internal inconsistencies", rep.inconsistencies))
		}
		return rep, nil
	}
	began := time.Now()
	for done := 0; cfg.more(done, time.Since(began), lastWall(plain)); done++ {
		rep, err := oneRep(nil, false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, rep)
		if cfg.Trace {
			rep, err := oneRep(NewTracer(4*len(w.postOrder())+64), true)
			if err != nil {
				return nil, err
			}
			traced = append(traced, rep)
		}
	}
	rss := peakRSSMB()
	for moreSetups(setups) {
		r, err := timedSetup(nil)
		if err != nil {
			return nil, err
		}
		r.discard()
	}
	res.Reps = len(plain)
	res.Identity = plain[0].identity()
	for _, rep := range append(append([]svcRep(nil), plain...), traced...) {
		if rep.identity() != res.Identity {
			gateErr(&gate, fmt.Errorf("repetitions disagree: %s vs %s", res.Identity, rep.identity()))
		}
	}

	if !cfg.Trace {
		endToEnd(res, setups, timedReps(plain), rss)
		return gate, nil
	}
	if gate != nil {
		// The probes replay what the run left behind; a run that failed
		// its gate may have left nothing.
		perLayer(res, layerValues{})
		return gate, nil
	}

	out, err := svcLayers(w, lastRun, traced[len(traced)-1], lastTracer)
	if err != nil {
		return nil, err
	}
	out["bench.trace_overhead_pct"] = overheadPct(wallsOf(plain), wallsOf(traced))
	perLayer(res, out)
	return gate, lastTracer.WriteFile(filepath.Join(cfg.OutDir, w.Name+".trace.json"), w.Name, cfg.Seed)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc; 0 where /proc does not provide it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
