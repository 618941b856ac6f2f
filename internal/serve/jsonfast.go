package serve

import (
	"bytes"
	"strconv"
)

// decodeFast decodes b into dst (a zero *WireRequest or *WireBatch) when b
// is in the canonical shape json.Marshal emits, and reports whether it did.
// The accepted shape is a strict subset of what encoding/json accepts, and
// on it the two produce deep-equal values:
//
//   - exact lowercase keys, each at most once, and no unknown keys;
//   - no null;
//   - strings of printable ASCII with no escapes;
//   - integer literals for id, cycles and timeout_ms, in range;
//   - only whitespace after the top-level object.
//
// Anything else — case-variant or repeated keys, trailing data, a number
// encoding/json would reject — returns false with dst untouched, and the
// caller hands the body to encoding/json, which then owns the answer and
// its error text. The scanner never reports an error of its own.
func decodeFast(b []byte, dst any) bool {
	s := wireScanner{b: b}
	switch d := dst.(type) {
	case *WireRequest:
		var w WireRequest
		if s.request(&w) && s.end() {
			*d = w
			return true
		}
	case *WireBatch:
		var w WireBatch
		if s.batch(&w) && s.end() {
			*d = w
			return true
		}
	}
	return false
}

// wireScanner walks a body left to right. Each method skips leading
// whitespace, consumes one token or value and reports false at the first
// byte outside the accepted subset.
type wireScanner struct {
	b []byte
	i int
}

func (s *wireScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// end reports whether only whitespace is left.
func (s *wireScanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

func (s *wireScanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object walks {"key": value, ...}; field parses the value of one key.
func (s *wireScanner) object(field func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.rawString()
		if !ok || !s.consume(':') || !field(key) {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// array walks [elem, ...]; elem parses one element.
func (s *wireScanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// rawString returns the bytes between the quotes of a string holding
// only printable ASCII and no escapes.
func (s *wireScanner) rawString() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			str := s.b[s.i:j]
			s.i = j + 1
			return str, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (s *wireScanner) text(dst *string) bool {
	str, ok := s.rawString()
	*dst = string(str)
	return ok
}

func (s *wireScanner) boolean(dst *bool) bool {
	s.ws()
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, s.i = true, s.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, s.i = false, s.i+5
	default:
		return false
	}
	return true
}

// number returns one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and whether it has
// neither a fraction nor an exponent.
func (s *wireScanner) number() (lit []byte, integral, ok bool) {
	s.ws()
	b, i := s.b, s.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false, false
		}
		integral = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
		integral = false
	}
	lit, s.i = b[s.i:i], i
	return lit, integral, true
}

// float parses a number as encoding/json does for a float64 field: the
// same strconv call on the same literal, so the bits match; out of range
// declines.
func (s *wireScanner) float(dst *float64) bool {
	lit, _, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (s *wireScanner) floatPtr(dst **float64) bool {
	var f float64
	if !s.float(&f) {
		return false
	}
	*dst = &f
	return true
}

// integer parses an integral literal that fits bits, as encoding/json
// does for an int field; a fraction, an exponent or overflow declines.
func (s *wireScanner) integer(bits int) (int64, bool) {
	lit, integral, ok := s.number()
	if !ok || !integral {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	return v, err == nil
}

func (s *wireScanner) int64Lit(dst *int64) bool {
	v, ok := s.integer(64)
	*dst = v
	return ok
}

func (s *wireScanner) intLit(dst *int) bool {
	v, ok := s.integer(strconv.IntSize)
	*dst = int(v)
	return ok
}

// once marks key number k of an object as seen, declining a repeat:
// encoding/json lets the last one win, which the scanner leaves to it.
func once(seen *uint32, k uint) bool {
	if *seen&(1<<k) != 0 {
		return false
	}
	*seen |= 1 << k
	return true
}

func (s *wireScanner) batch(w *WireBatch) bool {
	var seen uint32
	return s.object(func(key []byte) bool {
		if string(key) != "requests" || !once(&seen, 0) {
			return false
		}
		w.Requests = []WireRequest{}
		return s.array(func() bool {
			w.Requests = append(w.Requests, WireRequest{})
			return s.request(&w.Requests[len(w.Requests)-1])
		})
	})
}

func (s *wireScanner) request(w *WireRequest) bool {
	var seen uint32
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "solver":
			return once(&seen, 0) && s.text(&w.Solver)
		case "model":
			return once(&seen, 1) && s.text(&w.Model)
		case "discrete":
			return once(&seen, 2) && s.boolean(&w.Discrete)
		case "esw":
			return once(&seen, 3) && s.floatPtr(&w.Esw)
		case "deadline":
			return once(&seen, 4) && s.float(&w.Deadline)
		case "smin":
			return once(&seen, 5) && s.float(&w.SMin)
		case "smax":
			return once(&seen, 6) && s.float(&w.SMax)
		case "fastpow":
			return once(&seen, 7) && s.boolean(&w.FastPow)
		case "timeout_ms":
			return once(&seen, 8) && s.int64Lit(&w.TimeoutMS)
		case "procs":
			if !once(&seen, 9) {
				return false
			}
			w.Procs = []WireProc{}
			return s.array(func() bool {
				w.Procs = append(w.Procs, WireProc{})
				return s.proc(&w.Procs[len(w.Procs)-1])
			})
		case "tasks":
			if !once(&seen, 10) {
				return false
			}
			w.Tasks = make([]WireTask, 0, s.taskHint())
			return s.array(func() bool {
				w.Tasks = append(w.Tasks, WireTask{})
				return s.task(&w.Tasks[len(w.Tasks)-1])
			})
		}
		return false
	})
}

// minTaskBytes is the length of the shortest task json.Marshal emits,
// {"id":0,"cycles":0,"penalty":0}.
const minTaskBytes = 31

// taskHint sizes the tasks slice in one allocation: a task object holds
// no string or array, so in a canonical body the '}' bytes before the
// next ']' count the tasks exactly. The cap by length keeps a malformed
// body of braces from sizing a slice larger than real tasks could fill.
func (s *wireScanner) taskHint() int {
	rest := s.b[s.i:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return 0
	}
	return min(bytes.Count(rest[:end], []byte("}")), end/minTaskBytes+1)
}

func (s *wireScanner) task(t *WireTask) bool {
	var seen uint32
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return once(&seen, 0) && s.intLit(&t.ID)
		case "cycles":
			return once(&seen, 1) && s.int64Lit(&t.Cycles)
		case "penalty":
			return once(&seen, 2) && s.float(&t.Penalty)
		case "rho":
			return once(&seen, 3) && s.float(&t.Rho)
		}
		return false
	})
}

func (s *wireScanner) proc(p *WireProc) bool {
	var seen uint32
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "model":
			return once(&seen, 0) && s.text(&p.Model)
		case "discrete":
			return once(&seen, 1) && s.boolean(&p.Discrete)
		case "esw":
			return once(&seen, 2) && s.floatPtr(&p.Esw)
		case "smin":
			return once(&seen, 3) && s.float(&p.SMin)
		case "smax":
			return once(&seen, 4) && s.float(&p.SMax)
		}
		return false
	})
}
