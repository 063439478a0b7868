package gpu

import (
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		V100: "V100",
		P100: "P100",
		K80:  "K80",
		T4:   "T4",
		K520: "K520",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestTypeStringOutOfRange(t *testing.T) {
	if got := Type(200).String(); got != "Type(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for typ := Type(0); typ < NumTypes; typ++ {
		got, err := Parse(typ.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", typ.String(), err)
		}
		if got != typ {
			t.Errorf("Parse(%q) = %v, want %v", typ.String(), got, typ)
		}
	}
}

func TestParseUnknown(t *testing.T) {
	if _, err := Parse("H100"); err == nil {
		t.Error("Parse of unknown type succeeded, want error")
	}
	if _, err := Parse(""); err == nil {
		t.Error("Parse of empty string succeeded, want error")
	}
}

func TestValid(t *testing.T) {
	for typ := Type(0); typ < NumTypes; typ++ {
		if !typ.Valid() {
			t.Errorf("%v.Valid() = false", typ)
		}
	}
	if NumTypes.Valid() {
		t.Error("NumTypes.Valid() = true, want false")
	}
}

func TestFleetTotalAndCount(t *testing.T) {
	f := Fleet{V100: 2, K80: 3}
	if f.Total() != 5 {
		t.Errorf("Total() = %d, want 5", f.Total())
	}
	if f.Count(V100) != 2 || f.Count(K80) != 3 || f.Count(P100) != 0 {
		t.Errorf("unexpected counts: %v", f)
	}
}

func TestFleetNil(t *testing.T) {
	var f Fleet
	if f.Total() != 0 {
		t.Errorf("nil fleet Total() = %d, want 0", f.Total())
	}
	if f.Count(V100) != 0 {
		t.Error("nil fleet Count nonzero")
	}
	if len(f.Types()) != 0 {
		t.Error("nil fleet has types")
	}
}

func TestFleetCopyIndependent(t *testing.T) {
	f := Fleet{V100: 1}
	g := f
	g[V100] = 99
	if f[V100] != 1 {
		t.Error("a copy shares storage with the original")
	}
}

func TestFleetCountInvalidType(t *testing.T) {
	f := Fleet{V100: 1, K520: 2}
	if got := f.Count(NumTypes); got != 0 {
		t.Errorf("Count(NumTypes) = %d, want 0", got)
	}
	if got := f.Count(Type(200)); got != 0 {
		t.Errorf("Count(Type(200)) = %d, want 0", got)
	}
}

func TestFleetAdd(t *testing.T) {
	f := Fleet{V100: 1, P100: 2}
	f.Add(Fleet{P100: 3, K80: 4})
	want := Fleet{V100: 1, P100: 5, K80: 4}
	for typ, c := range want {
		if f[typ] != c {
			t.Errorf("after Add, %v = %d, want %d", typ, f[typ], c)
		}
	}
}

func TestFleetTypesSortedAndPositive(t *testing.T) {
	f := Fleet{K80: 1, V100: 2, P100: 0}
	types := f.Types()
	if len(types) != 2 {
		t.Fatalf("Types() = %v, want 2 entries", types)
	}
	if types[0] != V100 || types[1] != K80 {
		t.Errorf("Types() = %v, want [V100 K80]", types)
	}
}

func TestFleetString(t *testing.T) {
	f := Fleet{V100: 2, K80: 1}
	if got := f.String(); got != "{V100:2 K80:1}" {
		t.Errorf("String() = %q", got)
	}
}

func TestFleetTotalMatchesSumProperty(t *testing.T) {
	prop := func(a, b, c uint8) bool {
		f := Fleet{V100: int(a), P100: int(b), K80: int(c)}
		return f.Total() == int(a)+int(b)+int(c)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFleetAddCommutesWithTotalProperty(t *testing.T) {
	prop := func(a, b uint8) bool {
		f := Fleet{V100: int(a)}
		g := Fleet{P100: int(b)}
		sum := f
		sum.Add(g)
		return sum.Total() == f.Total()+g.Total()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
