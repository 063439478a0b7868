package experiments

import (
	"strings"
	"testing"
)

func TestLookupPolicy(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Policies {
		if seen[p.Name] {
			t.Errorf("duplicate table name %q", p.Name)
		}
		seen[p.Name] = true
		got, err := LookupPolicy(p.Name)
		if err != nil {
			t.Fatalf("LookupPolicy(%q): %v", p.Name, err)
		}
		// Every name a flag takes is the reported name or its prefix
		// ("ref-srtf" builds "ref-srtf-sticky").
		if name := got.New().Name(); !strings.HasPrefix(name, p.Name) {
			t.Errorf("row %q builds a scheduler named %q", p.Name, name)
		}
	}
	_, err := LookupPolicy("hadar+profiler")
	if err == nil {
		t.Fatal("LookupPolicy accepted a name outside the table")
	}
	for _, p := range Policies {
		if !strings.Contains(err.Error(), p.Name) {
			t.Errorf("error %q does not name the valid choice %q", err, p.Name)
		}
	}
}

// TestPolicyNamesAllocateNothing: the engine names its scheduler in
// every published snapshot, so Name must return a stored string.
func TestPolicyNamesAllocateNothing(t *testing.T) {
	for _, p := range Policies {
		s := p.New()
		if n := testing.AllocsPerRun(100, func() { _ = s.Name() }); n != 0 {
			t.Errorf("%s: Name() allocates %v times per call, want 0", p.Name, n)
		}
	}
}

func TestLookupCluster(t *testing.T) {
	for name, gpus := range map[string]int{"sim": 60, "physical": 8} {
		c, err := LookupCluster(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.TotalGPUs() != gpus {
			t.Errorf("-cluster %s has %d GPUs, want %d", name, c.TotalGPUs(), gpus)
		}
	}
	if _, err := LookupCluster("mega"); err == nil {
		t.Error("LookupCluster accepted an unknown name")
	}
}

// TestFailListSet covers the -fail parser: it takes CLI input, so every
// malformed field is a clean error and nothing is appended.
func TestFailListSet(t *testing.T) {
	for _, bad := range []string{"", "1:2", "1:2:3:4", "x:0:1", "0:a:1", "0:1:b", "1.5:0:1"} {
		var f FailList
		if err := f.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted a malformed window: %v", bad, f)
		} else if len(f) != 0 {
			t.Errorf("Set(%q) failed but appended %v", bad, f)
		}
	}
	var f FailList
	for _, ok := range []string{"0:3700:36000", "3:0.5:1e4"} {
		if err := f.Set(ok); err != nil {
			t.Fatalf("Set(%q): %v", ok, err)
		}
	}
	want := FailList{{Node: 0, Start: 3700, End: 36000}, {Node: 3, Start: 0.5, End: 1e4}}
	if len(f) != len(want) {
		t.Fatalf("got %v, want %v", f, want)
	}
	for i := range want {
		if f[i] != want[i] {
			t.Errorf("window %d = %+v, want %+v", i, f[i], want[i])
		}
	}
	if s := f.String(); s != "0:3700:36000,3:0.5:10000" {
		t.Errorf("String() = %q", s)
	}
	var empty FailList
	if s := empty.String(); s != "" {
		t.Errorf("empty String() = %q", s)
	}
}
