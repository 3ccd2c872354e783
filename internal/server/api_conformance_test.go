package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"tesc/api"
)

// rawDo issues one request and returns status + body without any
// decoding, for conformance checks over error shapes.
func rawDo(t *testing.T, env *testEnv, method, path string, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, envURL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := env.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// TestErrorEnvelopeEverywhere drives a failure mode on every API
// surface — bad JSON, unknown graph, unknown nested resource, invalid
// name, semantic rejects — and asserts each non-2xx response is exactly
// the api.Error envelope: a known code whose StatusOf matches the HTTP
// status, and a human reason.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	env := newTestEnv(t)

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode api.ErrorCode
	}{
		{"register malformed json", "POST", "/v1/graphs", "{", api.CodeBadRequest},
		{"register empty name", "POST", "/v1/graphs", `{"name":"","edge_list":"1 2\n"}`, api.CodeInvalidName},
		{"register bad name", "POST", "/v1/graphs", `{"name":"a b","edge_list":"1 2\n"}`, api.CodeInvalidName},
		{"register duplicate", "POST", "/v1/graphs", `{"name":"g","edge_list":"1 2\n"}`, api.CodeConflict},
		{"register no source", "POST", "/v1/graphs", `{"name":"empty"}`, api.CodeBadRequest},
		{"get unknown graph", "GET", "/v1/graphs/nope", "", api.CodeNotFound},
		{"delete unknown graph", "DELETE", "/v1/graphs/nope", "", api.CodeNotFound},
		{"events unknown graph", "POST", "/v1/graphs/nope/events", `{"events":{"x":[1]}}`, api.CodeNotFound},
		{"events malformed json", "POST", "/v1/graphs/g/events", "{", api.CodeBadRequest},
		{"events out of range", "POST", "/v1/graphs/g/events", `{"events":{"x":[999999]}}`, api.CodeBadRequest},
		{"delete unknown event", "DELETE", "/v1/graphs/g/events/nope", "", api.CodeNotFound},
		{"edges malformed json", "POST", "/v1/graphs/g/edges", "{", api.CodeBadRequest},
		{"edges empty batch", "POST", "/v1/graphs/g/edges", `{"changes":[]}`, api.CodeBadRequest},
		{"correlate unknown event", "POST", "/v1/graphs/g/correlate", `{"a":"left","b":"nope","h":2}`, api.CodeNotFound},
		{"correlate bad h", "POST", "/v1/graphs/g/correlate", `{"a":"left","b":"right","h":0}`, api.CodeBadRequest},
		{"correlate bad method", "POST", "/v1/graphs/g/correlate", `{"a":"left","b":"right","h":2,"method":"psychic"}`, api.CodeBadRequest},
		{"screen bad h", "POST", "/v1/graphs/g/screen", `{"h":0}`, api.CodeBadRequest},
		{"monitor bad tail", "POST", "/v1/graphs/g/monitors", `{"a":"left","b":"right","h":2,"tail":"sideways"}`, api.CodeBadRequest},
		{"monitor unknown event", "POST", "/v1/graphs/g/monitors", `{"a":"left","b":"nope","h":2}`, api.CodeNotFound},
		{"get unknown monitor", "GET", "/v1/graphs/g/monitors/nope", "", api.CodeNotFound},
		{"delete unknown monitor", "DELETE", "/v1/graphs/g/monitors/nope", "", api.CodeNotFound},
		{"refresh unknown monitor", "POST", "/v1/graphs/g/monitors/nope/refresh", "", api.CodeNotFound},
		{"get unknown job", "GET", "/v1/jobs/nope", "", api.CodeNotFound},
		{"cancel unknown job", "DELETE", "/v1/jobs/nope", "", api.CodeNotFound},
		{"snapshot without data dir", "POST", "/v1/graphs/g/snapshot", "", api.CodeUnavailable},
		{"replica status without data dir", "GET", "/v1/replica/status", "", api.CodeUnavailable},
		{"replica wal missing params", "GET", "/v1/replica/wal", "", api.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := rawDo(t, env, tc.method, tc.path, tc.body)
			var e api.Error
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("%s %s: body %q is not the error envelope: %v", tc.method, tc.path, raw, err)
			}
			if e.Code != tc.wantCode {
				t.Fatalf("%s %s: code %q, want %q (body %s)", tc.method, tc.path, e.Code, tc.wantCode, raw)
			}
			if e.Reason == "" {
				t.Fatalf("%s %s: envelope has no reason (body %s)", tc.method, tc.path, raw)
			}
			if want := api.StatusOf(e.Code); status != want {
				t.Fatalf("%s %s: HTTP %d, but StatusOf(%s) = %d", tc.method, tc.path, status, e.Code, want)
			}
			// The envelope must be exactly {code, reason[, retry_after_ms]}
			// — no legacy keys, no handler-specific extras.
			var loose map[string]any
			if err := json.Unmarshal(raw, &loose); err != nil {
				t.Fatal(err)
			}
			for k := range loose {
				switch k {
				case "code", "reason", "retry_after_ms":
				default:
					t.Fatalf("%s %s: envelope carries unexpected key %q (body %s)", tc.method, tc.path, k, raw)
				}
			}
		})
	}
}

// TestGraphNameValidationAtRouter exercises the router-level name gate:
// names that do not round-trip URL escaping are rejected with a typed
// 400 invalid_name at registration, and path lookups of such names are
// refused before touching the registry.
func TestGraphNameValidationAtRouter(t *testing.T) {
	env := newTestEnv(t)

	bad := []string{"a b", "a%2Fb", "a,b", "a;b", "日本", ".", ".."}
	for _, name := range bad {
		nameJSON, err := json.Marshal(name)
		if err != nil {
			t.Fatal(err)
		}
		status, raw := rawDo(t, env, "POST", "/v1/graphs",
			`{"name":`+string(nameJSON)+`,"edge_list":"1 2\n"}`)
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || status != http.StatusBadRequest || e.Code != api.CodeInvalidName {
			t.Errorf("register %q = %d %s, want 400 invalid_name", name, status, raw)
		}
		// The same name in the path is rejected with the typed 400, not
		// a 404 that would leak whether it exists. "." and ".." never
		// reach the router — the HTTP path cleaner collapses them first.
		if name == "." || name == ".." {
			continue
		}
		status, raw = rawDo(t, env, "GET", "/v1/graphs/"+url.PathEscape(name), "")
		if err := json.Unmarshal(raw, &e); err != nil || status != http.StatusBadRequest || e.Code != api.CodeInvalidName {
			t.Errorf("GET path %q = %d %s, want 400 invalid_name", name, status, raw)
		}
	}

	// Names that round-trip — including the tenant convention "acme:web"
	// — register and resolve fine.
	for _, name := range []string{"acme:web", "g-2_x.y", "ev@home"} {
		env.do(t, http.StatusCreated, "POST", "/v1/graphs",
			map[string]any{"name": name, "edge_list": "1 2\n2 3\n"}, nil)
		env.do(t, http.StatusOK, "GET", "/v1/graphs/"+name, nil, nil)
	}
}

// TestRoutesMatchAPITable pins the server's registered mux patterns to
// the public api.Routes table — the same table the OpenAPI generator
// reads — so a handler added without a spec entry (or vice versa) fails
// here instead of drifting silently.
func TestRoutesMatchAPITable(t *testing.T) {
	srv := New(Config{})
	registered := map[string]bool{}
	for _, p := range srv.routes {
		registered[p] = true
	}
	for _, r := range api.Routes {
		key := r.Method + " " + r.Pattern
		if !registered[key] {
			t.Errorf("api.Routes declares %q but the server does not register it", key)
		}
		delete(registered, key)
	}
	for p := range registered {
		t.Errorf("server registers %q but api.Routes does not declare it", p)
	}
}

// TestSuccessBodiesDecodeIntoAPITypes round-trips a few success
// responses through the public api structs with DisallowUnknownFields:
// any field the server emits that the api type does not declare fails
// the decode.
func TestSuccessBodiesDecodeIntoAPITypes(t *testing.T) {
	env := newTestEnv(t)

	strict := func(raw []byte, out any) error {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		return dec.Decode(out)
	}

	_, raw := rawDo(t, env, "GET", "/v1/graphs/g", "")
	var gi api.GraphInfo
	if err := strict(raw, &gi); err != nil {
		t.Errorf("GET graph body does not match api.GraphInfo: %v (%s)", err, raw)
	}

	_, raw = rawDo(t, env, "GET", "/v1/graphs", "")
	var list []api.GraphInfo
	if err := strict(raw, &list); err != nil {
		t.Errorf("list body does not match []api.GraphInfo: %v (%s)", err, raw)
	}

	_, raw = rawDo(t, env, "POST", "/v1/graphs/g/correlate",
		`{"a":"left","b":"right","h":2,"sample_size":100,"seed":7}`)
	var cr api.CorrelateResponse
	if err := strict(raw, &cr); err != nil {
		t.Errorf("correlate body does not match api.CorrelateResponse: %v (%s)", err, raw)
	}

	_, raw = rawDo(t, env, "GET", "/healthz", "")
	var h api.Health
	if err := strict(raw, &h); err != nil {
		t.Errorf("healthz body does not match api.Health: %v (%s)", err, raw)
	}
}
