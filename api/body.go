package api

// MaxBodyBytes bounds every request body tescd and the coordinator
// buffer. A larger body, declared or streamed, is refused with a 400
// ("request body exceeds 268435456 bytes") instead of held in memory.
const MaxBodyBytes = 256 << 20

// ScanRegisterGraph reads a POST /v1/graphs body in place, without
// encoding/json and without changing it. It accepts only canonical
// bodies:
//
//   - one object whose keys are exactly "name", "edge_list", "path" or
//     "snapshot", none twice, with JSON whitespace between tokens;
//   - string values of printable ASCII (0x20–0x7e);
//   - in edge_list the escapes \n \t \r \" \\ \/ and in no other
//     string any escape.
//
// Bytes after the closing brace are not read, as json.Decoder.Decode
// leaves them; end is the offset just past that brace. On accept, req
// holds every field but EdgeList, and edgeList is the raw, still
// escaped span between edge_list's quotes (it aliases body). Every
// other body (unknown or case-variant keys, null, \u escapes, non-ASCII
// bytes, an empty or truncated body) is declined with ok false, and
// must go through json.Decoder, which gives the same request for every
// body accepted here.
func ScanRegisterGraph(body []byte) (req RegisterGraphRequest, edgeList []byte, end int, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return RegisterGraphRequest{}, nil, 0, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return req, nil, i + 1, true
	}
	var seen [4]bool
	for {
		key, j, ok := scanString(body, i, false)
		if !ok {
			return RegisterGraphRequest{}, nil, 0, false
		}
		k := -1
		switch string(key) {
		case "name":
			k = 0
		case "edge_list":
			k = 1
		case "path":
			k = 2
		case "snapshot":
			k = 3
		}
		if k < 0 || seen[k] {
			return RegisterGraphRequest{}, nil, 0, false
		}
		seen[k] = true
		i = skipSpace(body, j)
		if i == len(body) || body[i] != ':' {
			return RegisterGraphRequest{}, nil, 0, false
		}
		val, j, ok := scanString(body, skipSpace(body, i+1), k == 1)
		if !ok {
			return RegisterGraphRequest{}, nil, 0, false
		}
		switch k {
		case 0:
			req.Name = string(val)
		case 1:
			edgeList = val
		case 2:
			req.Path = string(val)
		case 3:
			req.Snapshot = string(val)
		}
		i = skipSpace(body, j)
		if i == len(body) {
			return RegisterGraphRequest{}, nil, 0, false
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case '}':
			return req, edgeList, i + 1, true
		default:
			return RegisterGraphRequest{}, nil, 0, false
		}
	}
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString checks the canonical string starting at b[i] (its opening
// quote) and returns its contents, escapes untouched, and the offset
// just past its closing quote. escapes admits the edge_list escapes.
func scanString(b []byte, i int, escapes bool) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	for j := start; ; {
		for j < len(b) && plain[b[j]] {
			j++
		}
		switch {
		case j == len(b):
			return nil, 0, false
		case b[j] == '"':
			return b[start:j], j + 1, true
		case b[j] != '\\' || !escapes || j+1 == len(b):
			return nil, 0, false
		}
		switch b[j+1] {
		case 'n', 't', 'r', '"', '\\', '/':
			j += 2
		default:
			return nil, 0, false
		}
	}
}

// plain marks the bytes a canonical string holds as they are: printable
// ASCII but the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()
