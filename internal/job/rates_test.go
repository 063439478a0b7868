package job

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/gpu"
)

// mapOf is the map[gpu.Type]float64 that Rates replaced, holding the
// positive entries: what encoding/json wrote for Job.Throughput before
// the field was dense. It is the codec's oracle.
func mapOf(r Rates) map[gpu.Type]float64 {
	m := map[gpu.Type]float64{}
	for t, x := range r {
		if x > 0 {
			m[gpu.Type(t)] = x
		}
	}
	return m
}

func TestRatesJSONRejectsNonFinite(t *testing.T) {
	if _, err := json.Marshal(Rates{gpu.K80: math.Inf(1)}); err == nil {
		t.Error("+Inf throughput marshalled")
	}
	// NaN and negative entries are not positive, so they are not
	// written, as Validate rejects such a job anyway.
	got, err := json.Marshal(Rates{gpu.V100: math.NaN(), gpu.P100: -1, gpu.K80: 2})
	if err != nil || string(got) != `{"2":2}` {
		t.Errorf("got %s, %v; want {\"2\":2}", got, err)
	}
}

func TestRatesUnmarshal(t *testing.T) {
	cases := []struct {
		in   string
		want Rates
	}{
		{`null`, Rates{}},
		{`{}`, Rates{}},
		{`{"0":10,"2":2}`, Rates{gpu.V100: 10, gpu.K80: 2}},
		{` { "0" : 10 ,` + "\n\t" + `"2":2 } `, Rates{gpu.V100: 10, gpu.K80: 2}},
		{`{"0":0,"1":0,"2":2,"3":0,"4":0}`, Rates{gpu.K80: 2}},
		{`{"0":null,"4":1e-7}`, Rates{gpu.K520: 1e-7}},
		{`{"0":1,"0":2}`, Rates{gpu.V100: 2}},
		{`{"1":3}`, Rates{gpu.P100: 3}},
		{`{"3":-1}`, Rates{gpu.T4: -1}}, // decoded as the map did; Validate rejects it
	}
	for _, c := range cases {
		r := Rates{gpu.K80: 99} // the receiver is replaced, not merged into
		if err := json.Unmarshal([]byte(c.in), &r); err != nil {
			t.Errorf("%s: %v", c.in, err)
			continue
		}
		if r != c.want {
			t.Errorf("%s decodes to %v, want %v", c.in, r, c.want)
		}
	}
	for _, in := range []string{
		`{"5":1}`, `{"255":1}`, `{"256":1}`, `{"-1":1}`, `{"x":1}`, `{"":1}`, `{"+1":1}`,
		`{"0":"1"}`, `{"0":true}`, `{"0":[1]}`, `{"0":{}}`, `{"0":1e400}`, `[1]`, `"x"`, `1`,
	} {
		var r Rates
		if err := json.Unmarshal([]byte(in), &r); err == nil {
			t.Errorf("%s decoded to %v, want an error", in, r)
		}
	}
}

// TestValidateRejectsUndefinedType is the journal record that passed
// Validate while the field was a map: its only throughput is for type 7,
// which no reader ever looks at, so BestType found no usable type in a
// job Validate had accepted. It must fail, and the error must name the
// key.
func TestValidateRejectsUndefinedType(t *testing.T) {
	rec := []byte(`{"ID":3,"Name":"x-3","Model":"x","Workers":1,"Epochs":1,"ItersPerEpoch":10,"Arrival":0,"Throughput":{"7":5}}`)
	var j Job
	err := json.Unmarshal(rec, &j)
	if err == nil {
		err = j.Validate()
	}
	if err == nil {
		t.Fatalf("a job with a throughput only for undefined type 7 was accepted: %+v", j)
	}
	if !strings.Contains(err.Error(), `"7"`) {
		t.Errorf("error %q does not name the key", err)
	}
}

// FuzzRatesJSON checks the codec against encoding/json's map codec. For
// rates with finite non-negative entries: marshalling gives the bytes
// json.Marshal gives the map of the positive entries, and decoding that
// or the map with every entry (zeros included) gives the rates back.
// For arbitrary bytes: decoding agrees with decoding into the map,
// except that a key naming no defined type is an error.
func FuzzRatesJSON(f *testing.F) {
	f.Add(10.0, 0.0, 2.0, 0.0, 0.0, []byte(`{"0":10,"2":2}`))
	f.Add(60.0, 30.0, 6.0, 25.0, 4.0, []byte(`null`))
	f.Add(1e-7, 1e21, 5e-324, math.MaxFloat64, 0.1, []byte(`{"5":1}`))
	f.Add(13.34, 6.67, 10.0, 0.0, 7.5, []byte(`{"255":1}`))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, []byte(`{"-1":1}`))
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0, []byte(`{"x":1}`))
	f.Add(0.5, 0.0, 0.0, 0.0, 1e-6, []byte(`{"0":null, "0" : 2e1}`))
	f.Add(999999999999999999999.0, 1.5e-300, 123456789.125, 0.0, 1e20, []byte(`{"\u0030":1}`))
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64, raw []byte) {
		var r Rates
		for i, x := range []float64{a, b, c, d, e} {
			if x = math.Abs(x); !math.IsNaN(x) && !math.IsInf(x, 0) {
				r[i] = x
			}
		}
		got, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(mapOf(r))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Rates %v marshals to %s, the map to %s", r, got, want)
		}
		full := map[gpu.Type]float64{}
		for typ, x := range r {
			full[gpu.Type(typ)] = x
		}
		fullBytes, err := json.Marshal(full)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range [][]byte{got, fullBytes} {
			var back Rates
			if err := json.Unmarshal(form, &back); err != nil || back != r {
				t.Fatalf("%s decodes to %v, %v; want %v", form, back, err, r)
			}
		}
		for _, key := range []string{"5", "255", "-1", "x"} {
			if err := json.Unmarshal([]byte(`{"`+key+`":1}`), &r); err == nil {
				t.Fatalf("key %q decoded", key)
			}
		}

		var m map[gpu.Type]float64
		mapErr := json.Unmarshal(raw, &m)
		var dense Rates
		denseErr := json.Unmarshal(raw, &dense)
		undefined := false
		for typ := range m {
			undefined = undefined || !typ.Valid()
		}
		switch {
		case mapErr != nil || undefined:
			if denseErr == nil {
				t.Fatalf("%q decodes to %v; the map decoder says %v (undefined type: %v)", raw, dense, mapErr, undefined)
			}
		case denseErr != nil:
			t.Fatalf("%q: %v; the map decoder accepts it as %v", raw, denseErr, m)
		default:
			for typ := gpu.Type(0); typ < gpu.NumTypes; typ++ {
				if math.Float64bits(dense[typ]) != math.Float64bits(m[typ]) {
					t.Fatalf("%q decodes to %v, the map to %v", raw, dense, m)
				}
			}
		}
	})
}
