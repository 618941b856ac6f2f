package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type edgeCase struct {
	name   string
	path   string // "" means /solve
	body   string
	status int
	want   string
}

// errBody is the exact error response body carrying msg, a JSON string.
func errBody(msg string) string {
	return `{"accepted":null,"rejected":null,"energy":0,"penalty":0,"cost":0,"error":` + msg + "}\n"
}

// solveEdgeCases are bodies at the edge of what encoding/json accepts,
// each with the exact status and response body a fresh daemon gives it.
func solveEdgeCases() []edgeCase {
	const valid = `{"deadline":10,"smax":1,"tasks":[{"id":2,"cycles":4,"penalty":2}]}`
	const validWant = `{"accepted":[2],"rejected":[],"energy":0.6400000000000001,"penalty":0,"cost":0.6400000000000001}` + "\n"
	const intErr = `"json: cannot unmarshal number %s into Go struct field WireTask.tasks.cycles of type int64"`
	var big strings.Builder
	big.WriteString(`{"deadline":10,"smax":1,"tasks":[`)
	for big.Len() < 19_800_000 {
		big.WriteString(`{"id":1,"cycles":1,"penalty":1},`)
	}
	big.WriteString(`{"id":1,"cycles":1,"penalty":1}]}`)
	return []edgeCase{
		{"case-variant keys", "", `{"Deadline":10,"SMAX":1,"Tasks":[{"ID":2,"Cycles":4,"Penalty":2}]}`, 200, validWant},
		// With smax 2 the 15-cycle task would be accepted.
		{"duplicate key, last wins", "", `{"deadline":10,"smax":2,"smax":1,"tasks":[{"id":1,"cycles":15,"penalty":100}]}`, 200,
			`{"accepted":[],"rejected":[1],"energy":0,"penalty":100,"cost":100}` + "\n"},
		{"trailing garbage", "", valid + `trailing garbage`, 200, validWant},
		{"17 MiB of trailing spaces", "", valid + strings.Repeat(" ", 17<<20), 200, validWant},
		{"null esw and tasks", "", `{"deadline":10,"smax":1,"esw":null,"tasks":null}`, 200,
			`{"accepted":[],"rejected":[],"energy":0,"penalty":0,"cost":0}` + "\n"},
		{"fractional cycles", "", `{"deadline":10,"smax":1,"tasks":[{"id":1,"cycles":1.5,"penalty":1}]}`, 400,
			errBody(fmt.Sprintf(intErr, "1.5"))},
		{"exponent cycles", "", `{"deadline":10,"smax":1,"tasks":[{"id":1,"cycles":1e1,"penalty":1}]}`, 400,
			errBody(fmt.Sprintf(intErr, "1e1"))},
		{"deadline out of range", "", `{"deadline":1e400,"smax":1,"tasks":[]}`, 400,
			errBody(`"json: cannot unmarshal number 1e400 into Go struct field WireRequest.deadline of type float64"`)},
		{"unknown field", "", `{"bogus":1}`, 400, errBody(`"json: unknown field \"bogus\""`)},
		{"nested unknown field", "", `{"deadline":10,"smax":1,"tasks":[{"id":1,"cycles":4,"penalty":1,"extra":0}]}`, 400,
			errBody(`"json: unknown field \"extra\""`)},
		{"malformed", "", `{nope`, 400, errBody(`"invalid character 'n' looking for beginning of object key string"`)},
		{"empty body", "", ``, 400, errBody(`"EOF"`)},
		{"19.8 MB body", "", big.String(), 400, errBody(`"http: request body too large"`)},
		{"batch malformed", "/batch", `{nope`, 400, errBody(`"invalid character 'n' looking for beginning of object key string"`)},
		{"batch unknown field", "/batch", `{"requests":[{"deadline":10,"smax":1,"bogus":1}]}`, 400,
			errBody(`"json: unknown field \"bogus\""`)},
	}
}

// TestHandlerSolveEdges pins the status and exact body of each edge case.
func TestHandlerSolveEdges(t *testing.T) {
	for _, c := range solveEdgeCases() {
		srv := httptest.NewServer(NewHandler(New(Config{})))
		path := c.path
		if path == "" {
			path = "/solve"
		}
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if resp.StatusCode != c.status || string(body) != c.want {
			t.Errorf("%s: got %d %q, want %d %q", c.name, resp.StatusCode, body, c.status, c.want)
		}
	}
}
