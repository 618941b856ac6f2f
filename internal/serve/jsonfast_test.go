package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// heteroBody is a hetero /solve body in the canonical shape: a processor
// vector with an esw, rho, negative numbers and exponent floats.
const heteroBody = `{"solver":"HETERO-PART","esw":-1,"deadline":2.5e+21,"timeout_ms":-7,` +
	`"procs":[{"model":"xscale","discrete":true,"esw":0.4,"smax":1},{"smin":1e-7,"smax":0.5}],` +
	`"tasks":[{"id":-3,"cycles":9007199254740993,"penalty":-1.5e-300,"rho":0.25},{"id":0,"cycles":-1,"penalty":0}]}`

// agreesWithJSON fails t unless encoding/json, with unknown fields
// disallowed, accepts data into want and yields the value decodeFast put
// in got — deep-equal, and re-encoding to the same bytes (which also
// tells -0 from 0).
func agreesWithJSON(t *testing.T, data []byte, got, want any) {
	t.Helper()
	if err := decodeJSON(bytes.NewReader(data), want); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner and encoding/json disagree on %q:\n got %+v\nwant %+v", data, got, want)
	}
	g, err1 := json.Marshal(got)
	w, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil || !bytes.Equal(g, w) {
		t.Fatalf("scanner and encoding/json re-encode %q differently:\n got %s\nwant %s", data, g, w)
	}
}

// FuzzDecodeWire holds the scanner to its contract: whenever it accepts
// a body, encoding/json accepts it too and decodes the same value.
func FuzzDecodeWire(f *testing.F) {
	hot, err := json.Marshal(wireInstance(41, 50))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hot)
	f.Add([]byte(heteroBody))
	f.Add([]byte(`{"requests":[` + heteroBody + `,{"deadline":1,"smax":1,"tasks":[]}]}`))
	for _, c := range solveEdgeCases() {
		if len(c.body) < 1<<10 {
			f.Add([]byte(c.body))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req WireRequest
		if decodeFast(data, &req) {
			agreesWithJSON(t, data, &req, &WireRequest{})
		}
		var batch WireBatch
		if decodeFast(data, &batch) {
			agreesWithJSON(t, data, &batch, &WireBatch{})
		}
	})
}

// randFloat spans the float64 formats json.Marshal emits: zero, small
// integers, plain decimals and exponent forms of either sign.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(2001) - 1000)
	case 2:
		return rng.NormFloat64()
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(601)-300))
	}
}

func randText(rng *rand.Rand) string {
	const alphabet = "abcXYZ019 -_.:/[]{}'!#$%()*+,;=?@^`|~"
	var b strings.Builder
	for i := rng.Intn(8); i > 0; i-- {
		b.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

func randEsw(rng *rand.Rand) *float64 {
	if rng.Intn(2) == 0 {
		return nil
	}
	f := randFloat(rng)
	return &f
}

func randWireRequest(rng *rand.Rand) WireRequest {
	w := WireRequest{
		Solver:    randText(rng),
		Model:     randText(rng),
		Discrete:  rng.Intn(2) == 0,
		Esw:       randEsw(rng),
		Deadline:  randFloat(rng),
		SMin:      randFloat(rng),
		SMax:      randFloat(rng),
		FastPow:   rng.Intn(2) == 0,
		TimeoutMS: rng.Int63n(1<<40) - 1<<39,
		Tasks:     make([]WireTask, rng.Intn(12)),
	}
	for i := rng.Intn(4); i > 0; i-- {
		w.Procs = append(w.Procs, WireProc{
			Model: randText(rng), Discrete: rng.Intn(2) == 0, Esw: randEsw(rng),
			SMin: randFloat(rng), SMax: randFloat(rng),
		})
	}
	for i := range w.Tasks {
		w.Tasks[i] = WireTask{
			ID:      rng.Intn(1<<20) - 1<<19,
			Cycles:  rng.Int63() - rng.Int63(),
			Penalty: randFloat(rng),
		}
		if rng.Intn(2) == 0 {
			w.Tasks[i].Rho = randFloat(rng)
		}
	}
	return w
}

// TestDecodeFastAcceptsMarshal: the scanner takes what json.Marshal
// writes — compact or indented — so the fast path is the common path and
// FuzzDecodeWire cannot pass by declining everything.
func TestDecodeFastAcceptsMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		w := randWireRequest(rng)
		batch := WireBatch{Requests: make([]WireRequest, rng.Intn(4))}
		for j := range batch.Requests {
			batch.Requests[j] = randWireRequest(rng)
		}
		for _, v := range []any{w, batch} {
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if i%10 == 0 {
				if data, err = json.MarshalIndent(v, "", "\t"); err != nil {
					t.Fatal(err)
				}
			}
			got := reflect.New(reflect.TypeOf(v))
			if !decodeFast(data, got.Interface()) {
				t.Fatalf("scanner declined json.Marshal output %s", data)
			}
			agreesWithJSON(t, data, got.Interface(), reflect.New(reflect.TypeOf(v)).Interface())
		}
	}
}

// TestDecodeFastDeclines: each body sits just outside the canonical shape
// and must go to encoding/json, whatever encoding/json then makes of it.
func TestDecodeFastDeclines(t *testing.T) {
	for _, body := range []string{
		``,
		`null`,
		`[]`,
		`{"Deadline":1}`,
		`{"smax":2,"smax":1}`,
		`{"smax":1} x`,
		`{"smax":1}{}`,
		`{"esw":null}`,
		`{"tasks":null}`,
		`{"solver":"D\u0050"}`,
		`{"solver":"Dé"}`,
		`{"solver":"D` + "\x01" + `"}`,
		`{"tasks":[{"id":1.0}]}`,
		`{"tasks":[{"cycles":1e1}]}`,
		`{"tasks":[{"cycles":9223372036854775808}]}`,
		`{"deadline":1e400}`,
		`{"deadline":01}`,
		`{"deadline":-}`,
		`{"deadline":1.}`,
		`{"deadline":.5}`,
		`{"deadline":1e}`,
		`{"deadline":+1}`,
		`{"discrete":tru}`,
		`{"discrete":truex}`,
		`{"discrete":1}`,
		`{"deadline":1,}`,
		`{"deadline" 1}`,
		`{"tasks":[{"id":1},]}`,
		`{"tasks":[{"id":1,"extra":2}]}`,
		`{"procs":[{"smax":1,"smax":1}]}`,
		`{"bogus":1}`,
		`{"deadline":1`,
	} {
		var w WireRequest
		if decodeFast([]byte(body), &w) {
			t.Errorf("scanner accepted %q", body)
		}
		if !reflect.DeepEqual(w, WireRequest{}) {
			t.Errorf("scanner wrote %+v on declining %q", w, body)
		}
	}
	for _, body := range []string{`{"requests":null}`, `{"Requests":[]}`, `{"requests":[null]}`, `{"requests":[],"requests":[]}`} {
		var b WireBatch
		if decodeFast([]byte(body), &b) {
			t.Errorf("scanner accepted batch %q", body)
		}
	}
}

// TestDecodeWireReads: a body larger than the pooled buffer still decodes
// on the fast path, and a read error reaches the caller through
// encoding/json, as it did before the scanner.
func TestDecodeWireReads(t *testing.T) {
	var w WireRequest
	body := `{"smax":1}` + strings.Repeat(" ", 2*maxPooledScratch)
	if err := decodeWire(strings.NewReader(body), &w); err != nil || w.SMax != 1 {
		t.Fatalf("decodeWire = %v, %+v", err, w)
	}
	r := io.MultiReader(strings.NewReader(`{"smax":1,"tasks":[`), iotest.ErrReader(io.ErrUnexpectedEOF))
	if err := decodeWire(r, &WireRequest{}); err != io.ErrUnexpectedEOF {
		t.Fatalf("decodeWire on a failing reader = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// BenchmarkDecodeBody decodes a hot-http-shaped n=50 /solve body and
// converts it with ToRequest: "fast" is the daemon's decoder, "stdlib" the
// encoding/json path it falls back to.
func BenchmarkDecodeBody(b *testing.B) {
	body, err := json.Marshal(wireInstance(41, 50))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func(io.Reader, any) error
	}{{"fast", decodeWire}, {"stdlib", decodeJSON}} {
		b.Run(c.name, func(b *testing.B) {
			var rd bytes.Reader
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				var w WireRequest
				if err := c.decode(&rd, &w); err != nil {
					b.Fatal(err)
				}
				if _, err := w.ToRequest(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
