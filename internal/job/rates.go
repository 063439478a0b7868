package job

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/gpu"
)

// Rates holds X_j^r for every accelerator type, indexed by gpu.Type:
// the iterations per second one worker achieves on that type, 0 where
// the job cannot run. It is a dense array, not a map, because every
// scheduling round reads it for every queued job and every type.
//
// Its JSON form is the one encoding/json gives a map[gpu.Type]float64
// holding the positive entries: an object keyed by the decimal type
// index, keys in string order, floats formatted as encoding/json formats
// them. Journals and checkpoints written before the field was dense
// therefore read back unchanged, and new ones are byte-identical.
type Rates [gpu.NumTypes]float64

// Keys are written as one decimal digit, so ascending type order is the
// string order encoding/json sorts map keys in. This fails to compile
// once a tenth type is added, which would break that equivalence.
var _ [10 - gpu.NumTypes]struct{}

// MarshalJSON writes the positive entries as encoding/json writes a map
// holding only them.
func (r Rates) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, 2+len(r)*32))
}

// AppendJSON appends to b what MarshalJSON returns.
func (r *Rates) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, '{')
	first := true
	for t, x := range r {
		if !(x > 0) {
			continue
		}
		if math.IsInf(x, 1) {
			return b, fmt.Errorf("job: unsupported throughput %v on %v", x, gpu.Type(t))
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '"', byte('0'+t), '"', ':')
		b = AppendJSONFloat(b, x)
	}
	return append(b, '}'), nil
}

// AppendJSONFloat appends a finite float as encoding/json writes it:
// shortest round-trip digits, plain notation for zero and inside
// [1e-6, 1e21) in magnitude, exponent notation outside it with a
// two-digit negative exponent shortened ("1e-07" becomes "1e-7").
func AppendJSONFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON reads what encoding/json reads into a
// map[gpu.Type]float64 — an object of numbers or nulls keyed by decimal
// type index, or null for no rates — with one difference: a key that
// names no defined type is an error instead of an entry no reader
// looks at. Explicit zero entries are accepted; a repeated key keeps
// its last value. The receiver is replaced, not merged into.
func (r *Rates) UnmarshalJSON(data []byte) error {
	s := ratesScanner{data: data}
	var out Rates
	if !s.literal("null") {
		if !s.consume('{') {
			return fmt.Errorf("job: throughput is not a JSON object: %.32q", data)
		}
		for first := true; !s.consume('}'); first = false {
			if !first && !s.consume(',') {
				return s.syntaxError()
			}
			key, err := s.key()
			if err != nil {
				return err
			}
			t, err := strconv.ParseUint(string(key), 10, 8)
			if err != nil || !gpu.Type(t).Valid() {
				return fmt.Errorf("job: throughput for undefined accelerator type %q", key)
			}
			if !s.consume(':') {
				return s.syntaxError()
			}
			if out[t], err = s.number(); err != nil {
				return fmt.Errorf("job: throughput on %v: %w", gpu.Type(t), err)
			}
		}
	}
	if s.skipSpace(); s.i != len(s.data) {
		return s.syntaxError()
	}
	*r = out
	return nil
}

// ratesScanner walks the bytes of one JSON value for Rates.UnmarshalJSON.
// encoding/json validates a value before handing it to an unmarshaler,
// so the scanner only has to be safe, not a full validator, on anything
// else.
type ratesScanner struct {
	data []byte
	i    int
}

func (s *ratesScanner) skipSpace() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips white space and then c, reporting whether c was next.
func (s *ratesScanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal skips white space and then lit, reporting whether lit was
// next.
func (s *ratesScanner) literal(lit string) bool {
	s.skipSpace()
	if len(s.data)-s.i >= len(lit) && string(s.data[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

func (s *ratesScanner) syntaxError() error {
	return fmt.Errorf("job: malformed throughput object at offset %d", s.i)
}

// key reads an object key and returns its unquoted bytes. An escaped
// key is rare enough to be unquoted by encoding/json itself.
func (s *ratesScanner) key() ([]byte, error) {
	if !s.consume('"') {
		return nil, s.syntaxError()
	}
	start, escaped := s.i, false
	for ; s.i < len(s.data) && s.data[s.i] != '"'; s.i++ {
		if s.data[s.i] == '\\' {
			escaped = true
			s.i++
		}
	}
	if s.i >= len(s.data) {
		return nil, s.syntaxError()
	}
	s.i++
	if !escaped {
		return s.data[start : s.i-1], nil
	}
	var key string
	if err := json.Unmarshal(s.data[start-1:s.i], &key); err != nil {
		return nil, err
	}
	return []byte(key), nil
}

// number reads a JSON number, or null for 0 (what encoding/json leaves
// in a float map element decoded from null).
func (s *ratesScanner) number() (float64, error) {
	if s.literal("null") {
		return 0, nil
	}
	start := s.i
	for s.i < len(s.data) {
		c := s.data[s.i]
		if (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
		s.i++
	}
	if s.i == start {
		return 0, fmt.Errorf("not a number at offset %d", start)
	}
	return strconv.ParseFloat(string(s.data[start:s.i]), 64)
}
