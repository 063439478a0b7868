package experiments

import "fmt"

// Figure is one entry of the evaluation: a figure or table of the
// paper, or one of this repository's own scenarios.
type Figure struct {
	// Name selects it (experiments -fig).
	Name string
	// CSV names the files its result writes (experiments -csv), in
	// order; Table IV writes none.
	CSV []string
	run func(*Eval) (fmt.Stringer, error)
}

// List is the evaluation in the order experiments -all prints it. The
// Fig. 3a static comparison, the Fig. 3b continuous comparison and
// Table III are the base runs the other entries view instead of
// simulating again.
var List = []Figure{
	{"motivation", []string{"motivation.csv"}, func(*Eval) (fmt.Stringer, error) { return Motivation() }},
	{"failures", []string{"failures_outage.csv", "failures_baseline.csv"}, view("3a", func(e *Eval, static *Fig3Result) (fmt.Stringer, error) {
		return FailureScenario(e.setup, static.Cmp)
	})},
	{"federation", []string{"federation_compare.csv"}, view("3b", func(e *Eval, continuous *Fig3Result) (fmt.Stringer, error) {
		return FederationCompare(e.setup, nil, continuous.Cmp.Reports["hadar"])
	})},
	{"3a", []string{"fig3_static_cdf.csv", "fig3_static_summary.csv"}, func(e *Eval) (fmt.Stringer, error) { return Fig3(e.setup, false) }},
	{"3b", []string{"fig3_continuous_cdf.csv", "fig3_continuous_summary.csv"}, func(e *Eval) (fmt.Stringer, error) { return Fig3(e.setup, true) }},
	{"4", []string{"fig4_utilization.csv"}, func(e *Eval) (fmt.Stringer, error) { return Fig4(e.setup) }},
	{"5", []string{"fig5_ftf.csv"}, view("3a", func(_ *Eval, static *Fig3Result) (fmt.Stringer, error) { return Fig5(static.Cmp), nil })},
	{"6", []string{"fig6_makespan.csv"}, view("3a", func(e *Eval, static *Fig3Result) (fmt.Stringer, error) { return Fig6(e.setup, static.Cmp) })},
	{"7", []string{"fig7_scalability.csv"}, func(e *Eval) (fmt.Stringer, error) { return Fig7(e.setup.Seed, e.fig7Max) }},
	// The 60-GPU cluster sustains ~2 jobs/hour of the Philly-like mix;
	// the sweeps straddle that point so the load actually varies.
	{"8", []string{"fig8_rate_sweep.csv"}, func(e *Eval) (fmt.Stringer, error) { return Fig8(e.setup, []float64{1, 1.5, 2, 2.5, 3}) }},
	{"9", []string{"fig9_round_length.csv"}, func(e *Eval) (fmt.Stringer, error) {
		return Fig9(e.setup, []float64{6, 12, 24, 48}, []float64{1, 2, 3})
	}},
	{"10", []string{"fig10_prototype_utilization.csv"}, view("table3", func(_ *Eval, t3 *Table3Result) (fmt.Stringer, error) {
		return &Fig10Result{Cmp: t3.Physical}, nil
	})},
	{"table3", []string{"table3_physical.csv", "table3_simulated.csv"}, func(e *Eval) (fmt.Stringer, error) { return Table3(e.setup.Seed) }},
	{"table4", nil, func(e *Eval) (fmt.Stringer, error) { return Table4(e.setup.RoundLength), nil }},
}

// view is the run of an entry computed from the named entry's result.
func view[T fmt.Stringer](base string, f func(*Eval, T) (fmt.Stringer, error)) func(*Eval) (fmt.Stringer, error) {
	return func(e *Eval) (fmt.Stringer, error) {
		b, err := get[T](e, base)
		if err != nil {
			return nil, err
		}
		return f(e, b)
	}
}

// Eval computes List's results for one Setup and one Fig. 7 maximum,
// each at most once however many entries read it. It is not safe for
// concurrent use.
type Eval struct {
	setup   Setup
	fig7Max int
	// runs copies List's run functions: they call Result, so Result
	// reading List itself would be an initialization cycle.
	runs    map[string]func(*Eval) (fmt.Stringer, error)
	results map[string]fmt.Stringer
}

// NewEval returns an Eval that has computed nothing yet. fig7Max is the
// largest job count of the Fig. 7 sweep (2048 in the paper).
func NewEval(setup Setup, fig7Max int) *Eval {
	e := &Eval{setup: setup, fig7Max: fig7Max, runs: make(map[string]func(*Eval) (fmt.Stringer, error)),
		results: make(map[string]fmt.Stringer)}
	for _, f := range List {
		e.runs[f.Name] = f.run
	}
	return e
}

// Result returns the named entry's result, computing it on first use.
func (e *Eval) Result(name string) (fmt.Stringer, error) {
	if v, ok := e.results[name]; ok {
		return v, nil
	}
	run, ok := e.runs[name]
	if !ok {
		return nil, fmt.Errorf("experiments: no figure %q", name)
	}
	v, err := run(e)
	if err != nil {
		return nil, err
	}
	e.results[name] = v
	return v, nil
}

// get is Result for an entry whose result type the caller knows.
func get[T fmt.Stringer](e *Eval, name string) (T, error) {
	v, err := e.Result(name)
	t, _ := v.(T)
	return t, err
}

// Graded returns the results the scorecard grades.
func (e *Eval) Graded() (f Figures, err error) {
	res := func(name string) (v fmt.Stringer) {
		if err == nil {
			v, err = e.Result(name)
		}
		return v
	}
	f.Motivation, _ = res("motivation").(*MotivationResult)
	f.Static, _ = res("3a").(*Fig3Result)
	f.Continuous, _ = res("3b").(*Fig3Result)
	f.Fig4, _ = res("4").(*Fig4Result)
	f.Fig5, _ = res("5").(*Fig5Result)
	f.Fig6, _ = res("6").(*Fig6Result)
	f.Fig7, _ = res("7").(*Fig7Result)
	f.Table3, _ = res("table3").(*Table3Result)
	f.Federation, _ = res("federation").(*FedCompareResult)
	return f, err
}
