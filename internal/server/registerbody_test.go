package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tesc"
	"tesc/api"
	"tesc/internal/cluster"
)

// registerOracle serves a registration the way tescd did before the
// scan: encoding/json decodes the whole body, unknown fields refused.
func registerOracle(s *Server, w http.ResponseWriter, body []byte) {
	var req registerGraphRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		api.WriteError(w, api.CodeBadRequest, "invalid request body: %v", err)
		return
	}
	var inline io.Reader
	if req.EdgeList != "" {
		inline = strings.NewReader(req.EdgeList)
	}
	s.registerGraph(w, req, inline)
}

// registerEnv holds the servers and the coordinator a body is checked
// against: fast serves it through the scan, oracle through
// registerOracle, and coord forwards it to a member that records what
// it receives.
type registerEnv struct {
	fast, oracle *Server
	coord        http.Handler

	mu        sync.Mutex
	forwarded [][]byte
}

func newRegisterEnv(t testing.TB) *registerEnv {
	env := &registerEnv{fast: New(Config{}), oracle: New(Config{})}
	member := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		env.mu.Lock()
		env.forwarded = append(env.forwarded, raw)
		env.mu.Unlock()
		api.WriteJSON(w, http.StatusCreated, graphInfo{})
	})
	co, err := cluster.NewCoordinator(cluster.Config{
		Topology:   cluster.Topology{Members: []cluster.Member{{Name: "n1", URL: "http://member"}}},
		HTTPClient: &http.Client{Transport: handlerHop{member}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.coord = co.Handler()
	return env
}

// safeToServe reports whether tescd may serve req in a fuzz loop: it
// names no file outside /nonexistent/ (which cannot open), and its edge
// list holds no decimal run of 7 or more digits, a node ID that would
// make the parser allocate for millions of nodes.
func safeToServe(req registerGraphRequest) bool {
	for _, p := range []string{req.Path, req.Snapshot} {
		if p != "" && !strings.HasPrefix(p, "/nonexistent/") {
			return false
		}
	}
	run := 0
	for i := 0; i < len(req.EdgeList); i++ {
		if c := req.EdgeList[i]; c >= '0' && c <= '9' {
			if run++; run >= 7 {
				return false
			}
		} else {
			run = 0
		}
	}
	return true
}

// check holds body to the oracles and reports whether the scan
// accepted it:
//   - an accepted body decodes to the identical request (EdgeList after
//     the in-place unescape), and the scan leaves body unchanged and
//     ends where the decoder stops;
//   - tescd answers it as registerOracle does: the same status and
//     error text, and on 201 a graph with the same nodes and rows;
//   - the coordinator forwards exactly body to the member whenever
//     json.Unmarshal finds a valid name in it, and otherwise answers
//     the same 400 it did before the scan.
func (env *registerEnv) check(t testing.TB, body []byte) bool {
	t.Helper()
	var want registerGraphRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	decErr := dec.Decode(&want)

	orig := bytes.Clone(body)
	req, span, end, accepted := api.ScanRegisterGraph(body)
	if !bytes.Equal(body, orig) {
		t.Fatalf("ScanRegisterGraph changed the body")
	}
	if accepted {
		if decErr != nil {
			t.Fatalf("scan accepted %q, which the decoder refuses: %v", body, decErr)
		}
		req.EdgeList = string(unescapeInPlace(bytes.Clone(span)))
		if req != want {
			t.Fatalf("scan of %q = %+v, decoder %+v", body, req, want)
		}
		if off := dec.InputOffset(); off != int64(end) {
			t.Fatalf("scan of %q ends at %d, decoder at %d", body, end, off)
		}
	}

	if decErr != nil || safeToServe(want) {
		env.checkServer(t, body)
	}
	env.checkCoordinator(t, body)
	return accepted
}

func (env *registerEnv) checkServer(t testing.TB, body []byte) {
	t.Helper()
	got := httptest.NewRecorder()
	env.fast.handleRegisterGraph(got, httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(bytes.Clone(body))))
	want := httptest.NewRecorder()
	registerOracle(env.oracle, want, bytes.Clone(body))
	if got.Code != want.Code {
		t.Fatalf("body %q: status %d (%s), oracle %d (%s)", body, got.Code, got.Body, want.Code, want.Body)
	}
	if got.Code != http.StatusCreated {
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("body %q: answer %s, oracle %s", body, got.Body, want.Body)
		}
		return
	}
	var info graphInfo
	if err := json.Unmarshal(got.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	a, _ := env.fast.registry.Get(info.Name)
	b, _ := env.oracle.registry.Get(info.Name)
	if a == nil || b == nil {
		t.Fatalf("body %q: graph %q missing after its 201", body, info.Name)
	}
	sameGraph(t, a.Snapshot().Graph, b.Snapshot().Graph)
	for _, s := range []*Server{env.fast, env.oracle} {
		if removed, err := s.dropGraph(info.Name); !removed || err != nil {
			t.Fatalf("dropping %q: %v %v", info.Name, removed, err)
		}
	}
}

func (env *registerEnv) checkCoordinator(t testing.TB, body []byte) {
	t.Helper()
	env.mu.Lock()
	env.forwarded = env.forwarded[:0]
	env.mu.Unlock()
	got := httptest.NewRecorder()
	env.coord.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(body)))

	// Before the scan the coordinator answered these bodies itself.
	refused := httptest.NewRecorder()
	var req api.RegisterGraphRequest
	if err := json.Unmarshal(body, &req); err != nil {
		api.WriteError(refused, api.CodeBadRequest, "decoding request: %v", err)
	} else if err := api.ValidateGraphName(req.Name); err != nil {
		api.WriteError(refused, api.CodeInvalidName, "%v", err)
	}
	env.mu.Lock()
	defer env.mu.Unlock()
	if want := refused; want.Body.Len() > 0 {
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || len(env.forwarded) != 0 {
			t.Fatalf("coordinator on %q: %d %s (forwarded %d), want %d %s", body, got.Code, got.Body, len(env.forwarded), want.Code, want.Body)
		}
		return
	}
	if got.Code != http.StatusCreated || len(env.forwarded) != 1 || !bytes.Equal(env.forwarded[0], body) {
		t.Fatalf("coordinator on %q: %d %s, forwarded %q", body, got.Code, got.Body, env.forwarded)
	}
}

// sameGraph fails unless a and b have the same nodes and rows.
func sameGraph(t testing.TB, a, b *tesc.Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("graph %d nodes %d edges, oracle %d nodes %d edges", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		if ra, rb := a.Neighbors(v), b.Neighbors(v); fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("row %d = %v, oracle %v", v, ra, rb)
		}
	}
}

// marshalBody is the body json.Marshal renders for an inline edge list,
// as the Go client sends it.
func marshalBody(name, edges string) []byte {
	raw, err := json.Marshal(api.RegisterGraphRequest{Name: name, EdgeList: edges})
	if err != nil {
		panic(err)
	}
	return raw
}

// randomEdgeList renders a random edge list with "#" comment lines; with
// markup it also writes comments holding "<", ">" and "&", which
// json.Marshal escapes as \u003c, \u003e and \u0026.
func randomEdgeList(rng *rand.Rand, markup bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# nodes %d\n", 20+rng.IntN(20))
	for i := rng.IntN(30); i > 0; i-- {
		switch rng.IntN(6) {
		case 0:
			sb.WriteString("# a comment\twith a tab\r\n")
		case 1:
			if markup {
				sb.WriteString("# <b>&amp;</b>\n")
				continue
			}
			fallthrough
		default:
			fmt.Fprintf(&sb, "%d %d\n", rng.IntN(20), rng.IntN(20))
		}
	}
	return sb.String()
}

// registerBodyCases covers every class the scan accepts or declines.
var registerBodyCases = []struct {
	name   string
	body   string
	accept bool
}{
	{"canonical", `{"name":"g","edge_list":"0 1\n1 2\n"}`, true},
	{"whitespace between tokens", " \t\r\n{ \"name\" : \"g\" ,\n\"edge_list\" :\"0 1\" } ", true},
	{"empty object", `{}`, true},
	{"bytes after the object", `{"name":"g","edge_list":"0 1\n"} {"name":"h"} trailing`, true},
	{"edge_list escapes", `{"name":"g","edge_list":"# \"q\" \\ \/\t\r\n0 1\n"}`, true},
	{"unparsable edge list", `{"name":"g","edge_list":"0 x\n"}`, true},
	{"bad name", `{"name":"a b","edge_list":"0 1\n"}`, true},
	{"two sources", `{"name":"g","edge_list":"0 1","path":"/nonexistent/g.txt","snapshot":"/nonexistent/g.tescsnap"}`, true},
	{"no source", `{"name":"g"}`, true},
	{"empty edge list", `{"name":"g","edge_list":""}`, true},
	{"missing path", `{"name":"g","path":"/nonexistent/graph.txt"}`, true},
	{"missing snapshot", `{"snapshot":"/nonexistent/g.tescsnap","name":"g"}`, true},

	{"case-variant key", `{"Name":"g","edge_list":"0 1\n"}`, false},
	{"case-variant edge_list", `{"name":"g","EDGE_LIST":"0 1\n"}`, false},
	{"unknown key", `{"name":"g","edge_list":"0 1\n","nodes":3}`, false},
	{"duplicate key", `{"name":"g","name":"h","edge_list":"0 1\n"}`, false},
	{"null value", `{"name":"g","path":null,"edge_list":"0 1\n"}`, false},
	{"number value", `{"name":1}`, false},
	{"u escape in edge_list", `{"name":"g","edge_list":"0 1\u000a1 2\n"}`, false},
	{"b escape in edge_list", `{"name":"g","edge_list":"0 1\b"}`, false},
	{"escape in name", `{"name":"g\/h","edge_list":"0 1\n"}`, false},
	{"escape in key", `{"na\/me":"g","edge_list":"0 1\n"}`, false},
	{"non-ASCII name", "{\"name\":\"g\xc3\xa9\",\"edge_list\":\"0 1\\n\"}", false},
	{"invalid UTF-8 in edge_list", "{\"name\":\"g\",\"edge_list\":\"0 1\xff\\n\"}", false},
	{"DEL byte", "{\"name\":\"g\x7f\",\"edge_list\":\"0 1\\n\"}", false},
	{"raw newline in string", "{\"name\":\"g\",\"edge_list\":\"0 1\n\"}", false},
	{"empty body", ``, false},
	{"whitespace only", " \n", false},
	{"truncated object", `{"name":"g","edge_list":"0 1\n"`, false},
	{"truncated string", `{"name":"g","edge_list":"0 1\n`, false},
	{"truncated escape", `{"name":"g","edge_list":"0 1\`, false},
	{"trailing comma", `{"name":"g",}`, false},
	{"missing colon", `{"name" "g"}`, false},
	{"array", `[{"name":"g"}]`, false},
	{"string", `"g"`, false},
	{"byte order mark", "\xef\xbb\xbf{\"name\":\"g\"}", false},
}

func TestRegisterBodyMatchesDecoder(t *testing.T) {
	env := newRegisterEnv(t)
	for _, c := range registerBodyCases {
		if got := env.check(t, []byte(c.body)); got != c.accept {
			t.Errorf("%s: scan accepted = %v, want %v", c.name, got, c.accept)
		}
	}
	rng := rand.New(rand.NewPCG(46, 1))
	for i := 0; i < 50; i++ {
		markup := i%2 == 1
		body := marshalBody(fmt.Sprintf("g%d", i), randomEdgeList(rng, markup))
		accepted := env.check(t, body)
		if escaped := bytes.Contains(body, []byte(`\u00`)); accepted == escaped {
			t.Errorf("Marshal body %q: scan accepted = %v with \\u escapes %v", body, accepted, escaped)
		}
	}
}

// FuzzRegisterBody holds every body to the oracles of registerEnv.check.
func FuzzRegisterBody(f *testing.F) {
	for _, c := range registerBodyCases {
		f.Add([]byte(c.body))
	}
	rng := rand.New(rand.NewPCG(46, 2))
	for i := 0; i < 4; i++ {
		f.Add(marshalBody("g", randomEdgeList(rng, i%2 == 1)))
	}
	env := newRegisterEnv(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		env.check(t, body)
	})
}

// countingReader is an endless body that counts the bytes read from it.
type countingReader struct{ n int64 }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	r.n += int64(len(p))
	return len(p), nil
}

// TestRequestBodyBound checks both readers of a request body, the
// registration's and decodeJSON's (here under POST .../events): a
// declared Content-Length above the bound is refused unread, a body
// that crosses the bound while streaming is refused once it does, and
// a body of exactly the bound is read.
func TestRequestBodyBound(t *testing.T) {
	env := newTestEnv(t)
	h := env.srv.Handler()
	post := func(path string, body io.Reader, length int64) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, path, body)
		r.ContentLength = length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}
	tooLarge := func(limit int64) string {
		rec := httptest.NewRecorder()
		api.WriteError(rec, api.CodeBadRequest, "request body exceeds %d bytes", limit)
		return rec.Body.String()
	}
	for _, path := range []string{"/v1/graphs", "/v1/graphs/g/events"} {
		var body countingReader
		rec := post(path, &body, api.MaxBodyBytes+1)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != tooLarge(api.MaxBodyBytes) || body.n != 0 {
			t.Fatalf("%s, declared %d bytes: %d %s after reading %d bytes", path, int64(api.MaxBodyBytes+1), rec.Code, rec.Body, body.n)
		}
	}

	defer func(old int64) { bodyLimit = old }(bodyLimit)
	bodyLimit = 4096
	for _, path := range []string{"/v1/graphs", "/v1/graphs/g/events"} {
		rec := post(path, io.LimitReader(&countingReader{}, bodyLimit+1), -1)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != tooLarge(bodyLimit) {
			t.Fatalf("%s, %d streamed bytes: %d %s", path, bodyLimit+1, rec.Code, rec.Body)
		}
	}
	// Exactly the bound: a registration padded with trailing spaces.
	body := []byte(`{"name":"fits","edge_list":"0 1\n"}`)
	body = append(body, bytes.Repeat([]byte{' '}, int(bodyLimit)-len(body))...)
	if rec := post("/v1/graphs", bytes.NewReader(body), -1); rec.Code != http.StatusCreated {
		t.Fatalf("a body of exactly %d bytes: %d %s", bodyLimit, rec.Code, rec.Body)
	}
}

// registerBody100k is the body screen-k32 registers: the 100k-node
// coauthorship surrogate's edge list as json.Marshal renders it.
var registerBody100k = sync.OnceValue(func() []byte {
	var sb strings.Builder
	if err := tesc.RandomCoauthorshipGraph(1, 11).WriteGraph(&sb); err != nil {
		panic(err)
	}
	return marshalBody("g100k", sb.String())
})

// BenchmarkRegisterGraph100k registers screen-k32's graph through
// Server.Handler() and deletes it again. scan posts the body as the
// client renders it; decoder posts it with its first key spelled
// "Name", which the scan declines and encoding/json decodes.
func BenchmarkRegisterGraph100k(b *testing.B) {
	body := registerBody100k()
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"scan", body},
		{"decoder", bytes.Replace(body, []byte(`{"name"`), []byte(`{"Name"`), 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := New(Config{}).Handler()
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(c.body)))
				if rec.Code != http.StatusCreated {
					b.Fatalf("register: %d %s", rec.Code, rec.Body)
				}
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/graphs/g100k", nil))
				if rec.Code != http.StatusNoContent {
					b.Fatalf("delete: %d %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
