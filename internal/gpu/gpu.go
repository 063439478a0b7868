// Package gpu defines the accelerator types used throughout the Hadar
// scheduler and its baselines, together with small helpers for counting
// fleets of devices.
//
// The paper evaluates on clusters mixing NVIDIA V100, P100 and K80 GPUs
// (simulation) and T4, K520, K80 and V100 GPUs (AWS prototype); all five
// types are modeled here.
package gpu

import (
	"fmt"
	"sort"
)

// Type identifies an accelerator model.
type Type uint8

// Accelerator types known to the system. The zero value is V100 so that
// an uninitialized Type is still a valid device, but callers should set
// types explicitly.
const (
	V100 Type = iota
	P100
	K80
	T4
	K520

	// NumTypes is the number of defined accelerator types. It is not a
	// valid Type itself.
	NumTypes
)

var typeNames = [NumTypes]string{"V100", "P100", "K80", "T4", "K520"}

// String returns the canonical marketing name of the accelerator.
func (t Type) String() string {
	if t < NumTypes {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t names a defined accelerator type.
func (t Type) Valid() bool { return t < NumTypes }

// Parse converts a case-sensitive accelerator name ("V100", "P100",
// "K80", "T4", "K520") back to its Type.
func Parse(s string) (Type, error) {
	for i, name := range typeNames {
		if name == s {
			return Type(i), nil
		}
	}
	return 0, fmt.Errorf("gpu: unknown accelerator type %q", s)
}

// Fleet counts devices by type. A nil Fleet is an empty fleet.
type Fleet map[Type]int

// Total returns the number of devices across all types.
func (f Fleet) Total() int {
	n := 0
	for _, c := range f {
		n += c
	}
	return n
}

// Count returns the number of devices of type t (0 if absent).
func (f Fleet) Count(t Type) int { return f[t] }

// Clone returns an independent copy of the fleet.
func (f Fleet) Clone() Fleet {
	out := make(Fleet, len(f))
	for t, c := range f {
		out[t] = c
	}
	return out
}

// Add merges other into f, returning f for chaining. f must be non-nil.
func (f Fleet) Add(other Fleet) Fleet {
	for t, c := range other {
		f[t] += c
	}
	return f
}

// Types returns the device types present (count > 0) in ascending Type
// order, so iteration is deterministic.
func (f Fleet) Types() []Type {
	out := make([]Type, 0, len(f))
	for t, c := range f {
		if c > 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the fleet as, e.g., "{V100:2 K80:1}".
func (f Fleet) String() string {
	s := "{"
	for i, t := range f.Types() {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", t, f[t])
	}
	return s + "}"
}
