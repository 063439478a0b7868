package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTraceJSON ensures arbitrary JSON never panics the trace
// reader.
func FuzzReadTraceJSON(f *testing.F) {
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.NumJobs = 2
	if jobs, err := Generate(cfg); err == nil {
		if err := Write(&buf, jobs); err == nil {
			f.Add(buf.String())
		}
	}
	f.Add("[]")
	f.Add("{")
	f.Fuzz(func(t *testing.T, input string) {
		jobs, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, j := range jobs {
			if err := j.Validate(); err != nil {
				t.Fatalf("Read returned invalid job: %v", err)
			}
		}
	})
}
