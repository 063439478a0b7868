package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/trace"
)

// referenceState is the engine encoder the encoded-history cache
// replaced: the whole state marshalled in one go, the report nested as
// raw JSON. AppendState must write exactly its bytes, so a checkpoint
// file is the same whichever encoder wrote it.
func referenceState(e *Engine) ([]byte, error) {
	st, err := e.liveState()
	if err != nil {
		return nil, err
	}
	st.Jobs = e.all
	if st.Report, err = json.Marshal(e.report); err != nil {
		return nil, err
	}
	return json.Marshal(&st)
}

// stateChecker compares every checkpoint of an engine with the
// reference encoder, and the parts of the previous checkpoint with the
// bytes they joined to then: the engine has stepped since, and the
// cache only appends past what it handed out.
type stateChecker struct {
	t       testing.TB
	parts   [][]byte
	joined  []byte
	checked int
}

func (c *stateChecker) check(e *Engine, at string) []byte {
	c.t.Helper()
	if c.parts != nil && !bytes.Equal(bytes.Join(c.parts, nil), c.joined) {
		c.t.Fatalf("%s: the previous checkpoint's parts changed after the engine stepped on", at)
	}
	want, err := referenceState(e)
	if err != nil {
		c.t.Fatal(err)
	}
	parts, err := e.AppendState(nil)
	if err != nil {
		c.t.Fatal(err)
	}
	got := bytes.Join(parts, nil)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		c.t.Fatalf("%s: AppendState writes %d bytes, the reference %d; first difference at byte %d:\n got …%.80s\nwant …%.80s",
			at, len(got), len(want), i, got[max(0, i-20):], want[max(0, i-20):])
	}
	c.parts, c.joined = parts, got
	c.checked++
	return got
}

// paperCluster is the paper's simulated cluster: five 4-GPU nodes each
// of V100, P100 and K80.
func paperCluster() *cluster.Cluster {
	return cluster.Merge(
		cluster.Homogeneous(5, gpu.V100, 4),
		cluster.Homogeneous(5, gpu.P100, 4),
		cluster.Homogeneous(5, gpu.K80, 4),
	)
}

// outageOptions are the failure scenario's two rolling outages (a V100
// and a K80 node, both starting mid-round) on validated options.
func outageOptions() Options {
	opts := ValidatedOptions()
	opts.Failures = []Failure{
		{Node: 0, Start: 1*3600 + 100, End: 9 * 3600},
		{Node: 10, Start: 4*3600 + 100, End: 12 * 3600},
	}
	return opts
}

// hadarRun is an n-job Poisson trace under Hadar on the paper's
// cluster, driven as the service drives an engine: one submission, then
// one event, while the trace lasts. Every 12th job is cancelled after
// the event that follows its submission unless it finished in it, so
// visit, which sees the engine after every event, sees that cancel
// pending.
func hadarRun(t testing.TB, n int, opts Options, visit func(e *Engine, event int)) *Engine {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.NumJobs = n
	cfg.Pattern = trace.Poisson
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(paperCluster(), core.New(core.DefaultOptions()), opts)
	if err != nil {
		t.Fatal(err)
	}
	for event := 0; len(jobs) > 0 || e.HasPendingEvents(); event++ {
		cancel := -1 // no job
		if len(jobs) > 0 {
			if err := e.SubmitJob(jobs[0]); err != nil {
				t.Fatal(err)
			}
			if jobs[0].ID%12 == 0 {
				cancel = jobs[0].ID
			}
			jobs = jobs[1:]
		}
		if err := e.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		if phase, ok := e.Phase(cancel); ok && phase != JobFinished {
			if err := e.CancelJob(cancel); err != nil {
				t.Fatal(err)
			}
		}
		visit(e, event)
	}
	return e
}

// TestAppendStateMatchesReference checkpoints engines every few events
// and requires the reference encoder's bytes each time: an empty engine
// (every history null), the 96-job Hadar run with and without outages
// (pending cancels, down nodes), a 320-job run whose jobs and results
// outgrow one encode batch — one checkpoint after a gap encodes more
// than a batch of new jobs at once — and restored engines stepping on
// from a cold cache into a warm one, the larger one's first checkpoint
// encoding more than a batch of jobs and of results.
func TestAppendStateMatchesReference(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
		if err != nil {
			t.Fatal(err)
		}
		c := &stateChecker{t: t}
		if got := c.check(e, "fresh"); !bytes.Contains(got, []byte(`"jobs":null`)) || !bytes.Contains(got, []byte(`"RoundStarts":null}`)) {
			t.Fatalf("an empty engine's histories are not null: %s", got)
		}
		if err := e.SubmitJob(simpleJob(0, 1, 500, 0)); err != nil {
			t.Fatal(err)
		}
		c.check(e, "one job, no round")
	})
	every4 := func(event int) bool { return event%4 == 0 }
	for _, row := range []struct {
		name  string
		jobs  int
		opts  Options
		check func(event int) bool
		want  string // a field some checkpoint of the row must hold
	}{
		{"hadar-96", 96, ValidatedOptions(), every4, `"cancel_requested":[`},
		{"hadar-96-outage", 96, outageOptions(), every4, `"prev_down":[0`},
		// No checkpoint between events 12 and 300, while 288 jobs arrive.
		{"hadar-320-batches", 320, ValidatedOptions(), func(event int) bool {
			return event%4 == 0 && (event <= 12 || event >= 300)
		}, `"cancel_requested":[`},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := &stateChecker{t: t}
			seen := false
			newJobs := 0 // the most jobs one checkpoint encoded
			last := 0
			e := hadarRun(t, row.jobs, row.opts, func(e *Engine, event int) {
				if row.check(event) {
					seen = bytes.Contains(c.check(e, row.name), []byte(row.want)) || seen
					newJobs, last = max(newJobs, len(e.all)-last), len(e.all)
				}
			})
			c.check(e, "drained")
			if !seen {
				t.Errorf("no checkpoint holds %s", row.want)
			}
			if row.jobs > encodeBatch && (newJobs <= encodeBatch || len(e.report.Jobs) <= encodeBatch) {
				t.Errorf("one checkpoint encoded at most %d new jobs and the run has %d results: no batch boundary crossed",
					newJobs, len(e.report.Jobs))
			}
			t.Logf("%d checkpoints, the last %d bytes", c.checked, len(c.joined))
		})
	}
	for _, row := range []struct {
		name string
		jobs int
		cut  func(e *Engine, event int) bool
	}{
		{"restored", 96, func(_ *Engine, event int) bool { return event == 150 }},
		{"restored-320", 320, func(e *Engine, _ int) bool { return len(e.report.Jobs) > encodeBatch+8 }},
	} {
		t.Run(row.name, func(t *testing.T) {
			var cut []byte
			hadarRun(t, row.jobs, outageOptions(), func(e *Engine, event int) {
				if cut == nil && row.cut(e, event) {
					var err error
					if cut, err = e.MarshalState(); err != nil {
						t.Fatal(err)
					}
				}
			})
			e, err := RestoreEngine(paperCluster(), core.New(core.DefaultOptions()), outageOptions(), cut)
			if err != nil {
				t.Fatal(err)
			}
			c := &stateChecker{t: t}
			if got := c.check(e, "cold"); !bytes.Equal(got, cut) {
				t.Fatal("the restored engine does not re-encode to the checkpoint it came from")
			}
			if !e.HasPendingEvents() {
				t.Fatal("the cut leaves nothing to step on")
			}
			for i := 0; e.HasPendingEvents(); i++ {
				if err := e.ProcessNextEvent(); err != nil {
					t.Fatal(err)
				}
				if i%4 == 0 {
					c.check(e, "warm")
				}
			}
			c.check(e, "drained")
		})
	}
}

// FuzzRestoreEngine feeds RestoreEngine engine sections cut from the
// 96-job Hadar run under outages at three points — the first with a
// pending cancel, the first with a node down, and one late in the run —
// and mutations of them. It must never panic, and every state it
// accepts must re-encode to the reference encoder's bytes, from a cold
// cache and again after a few more events.
func FuzzRestoreEngine(f *testing.F) {
	cuts := map[string]bool{}
	hadarRun(f, 96, outageOptions(), func(e *Engine, event int) {
		data, err := e.MarshalState()
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []struct {
			name string
			take bool
		}{
			{"cancel", bytes.Contains(data, []byte(`"cancel_requested":[`))},
			{"down", bytes.Contains(data, []byte(`"prev_down":[`))},
			{"late", event == 150},
		} {
			if cut.take && !cuts[cut.name] {
				cuts[cut.name] = true
				f.Add(data)
				return
			}
		}
	})
	if len(cuts) != 3 {
		f.Fatalf("the run offers only the cuts %v", cuts)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := RestoreEngine(paperCluster(), core.New(core.DefaultOptions()), outageOptions(), data)
		if err != nil {
			return
		}
		c := &stateChecker{t: t}
		c.check(e, "cold")
		for i := 0; i < 3 && e.HasPendingEvents(); i++ {
			if e.ProcessNextEvent() != nil {
				return // a state the engine refuses to step is not one it checkpoints
			}
		}
		c.check(e, "warm")
	})
}
