package tesc

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reachAllowlist names the internal declarations that no binary, public
// package or example reaches but that stay anyway. Only test fixtures
// shared across packages belong here: a fixture used by one package's
// tests lives in that package's _test.go files. An entry naming a type
// covers its methods, and whatever an entry's declaration uses is kept
// with it.
var reachAllowlist = []reachEntry{
	{"wal.FaultFS", "crash-injecting filesystem shared by the wal, snapshot and server recovery tests"},
	{"wal.NewFaultFS", "constructor of the shared FaultFS fixture"},
	{"graph.Path", "graph fixture builder shared by the tests of several packages"},
	{"graph.Cycle", "graph fixture builder shared by the tests of several packages"},
	{"graph.Complete", "graph fixture builder shared by the tests of several packages"},
	{"graph.Star", "graph fixture builder shared by the tests of several packages"},
	{"graph.Grid", "graph fixture builder shared by the tests of several packages"},
	{"graph.FromEdges", "graph fixture builder shared by the tests of several packages"},
	{"graph.MustFromEdges", "graph fixture builder shared by the tests of several packages"},
	{"bench.TinyConfig", "reduced experiment scale shared by the root benchmarks and the bench tests"},
	{"server.ReplicaSource", "in-process replication source shared by the server and replica tests"},
	{"server.Server.Kill", "crash without flushing, shared by the server and replica tests (keeps wal.Log.Kill)"},
	{"graphgen.FlipStream.Take", "mutation batches shared by the server, screen, monitor, vicinity and graph tests"},
}

// TestReachability fails on any package-level declaration in internal/
// that no root can reach through non-test code. The roots are every
// declaration of a package outside internal/ (tesc, api, client, cmd/*,
// examples/*, and the cmd/tescperf module), every init and main, and
// every blank "var _ = ..." initializer. Delete what it reports, move an
// oracle that only a test compares against into that package's _test.go,
// or, for a fixture shared by several packages' tests, add an allowlist
// entry with its reason.
func TestReachability(t *testing.T) {
	res, err := analyzeReachability(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, stale := res.check(reachAllowlist)
	lines := 0
	for _, d := range findings {
		lines += d.lines
		t.Errorf("%s: %s %s (%d lines) is unreachable", d.pos, d.kind, d.key, d.lines)
	}
	if len(findings) > 0 {
		t.Errorf("%d unreachable declarations, %d lines", len(findings), lines)
	}
	for _, s := range stale {
		t.Errorf("allowlist: %s", s)
	}
}

// TestReachabilityFixture checks the gate on testdata/reach, a module
// whose only dead code is lib.Dead.
func TestReachabilityFixture(t *testing.T) {
	res, err := analyzeReachability(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	fixture := reachEntry{"lib.Fixture", "shared test fixture"}
	for _, tc := range []struct {
		allow     []reachEntry
		findings  []string
		staleWant string
	}{
		{allow: []reachEntry{fixture}, findings: []string{"lib.Dead"}},
		{allow: nil, findings: []string{"lib.Fixture", "lib.fixtureHelper", "lib.Dead"}},
		{allow: []reachEntry{fixture, {"lib.Used", "x"}}, findings: []string{"lib.Dead"}, staleWant: "lib.Used is reachable"},
		{allow: []reachEntry{fixture, {"lib.Gone", "x"}}, findings: []string{"lib.Dead"}, staleWant: "lib.Gone names no declaration"},
	} {
		findings, stale := res.check(tc.allow)
		var got []string
		for _, d := range findings {
			got = append(got, d.key)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.findings) {
			t.Errorf("allow %v: findings %v, want %v", tc.allow, got, tc.findings)
		}
		switch {
		case tc.staleWant == "" && len(stale) > 0:
			t.Errorf("allow %v: unexpected stale entries %v", tc.allow, stale)
		case tc.staleWant != "" && (len(stale) != 1 || !strings.HasPrefix(stale[0], tc.staleWant)):
			t.Errorf("allow %v: stale %v, want %q", tc.allow, stale, tc.staleWant)
		}
	}
}

type reachEntry struct{ name, reason string }

// reachDecl is one package-level declaration of an internal package.
// Its key is the package path below internal/, then the receiver type
// for a method, then the name: "graph.NodeSet.Union".
type reachDecl struct {
	key, kind string
	pos       token.Position
	lines     int
	obj       types.Object
}

type reachResult struct {
	decls   []*reachDecl // internal declarations, in source order
	edges   map[types.Object][]types.Object
	roots   []types.Object
	methods map[*types.TypeName][]types.Object // interface-satisfying methods
}

// reach returns what the roots and extra reach.
func (r *reachResult) reach(extra []types.Object) map[types.Object]bool {
	seen := map[types.Object]bool{}
	stack := append(append([]types.Object(nil), r.roots...), extra...)
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[o] {
			continue
		}
		seen[o] = true
		stack = append(stack, r.edges[o]...)
		if tn, ok := o.(*types.TypeName); ok {
			stack = append(stack, r.methods[tn]...)
		}
	}
	return seen
}

// check returns the unreachable declarations that allow does not cover,
// and one message per allowlist entry that names no declaration or only
// reachable ones.
func (r *reachResult) check(allow []reachEntry) (findings []*reachDecl, stale []string) {
	base := r.reach(nil)
	var extra []types.Object
	for _, e := range allow {
		var named, dead int
		for _, d := range r.decls {
			if d.key == e.name || strings.HasPrefix(d.key, e.name+".") {
				named++
				if !base[d.obj] {
					dead++
					extra = append(extra, d.obj)
				}
			}
		}
		switch {
		case named == 0:
			stale = append(stale, e.name+" names no declaration")
		case dead == 0:
			stale = append(stale, e.name+" is reachable; drop its entry")
		}
	}
	kept := r.reach(extra)
	for _, d := range r.decls {
		if !kept[d.obj] {
			findings = append(findings, d)
		}
	}
	return findings, stale
}

// analyzeReachability type-checks the non-test files of every package
// under dir, including nested modules, and builds the reference graph
// between their package-level declarations.
func analyzeReachability(dir string) (*reachResult, error) {
	l := &reachLoader{
		fset: token.NewFileSet(),
		mods: map[string]string{},
		pkgs: map[string]*reachPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	var dirs []string
	err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != dir && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, p)
			return nil
		}
		if e.Name() == "go.mod" {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, line := range strings.Split(string(b), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					l.mods[strings.Trim(f[1], `"`)] = filepath.Dir(p)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*reachPkg
	for _, d := range dirs {
		path, ok := l.pathOf(d)
		if !ok {
			continue
		}
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}

	res := &reachResult{
		edges:   map[types.Object][]types.Object{},
		methods: map[*types.TypeName][]types.Object{},
	}
	ifaces := map[string][]*types.Signature{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				ifaces[m.Name()] = append(ifaces[m.Name()], m.Type().(*types.Signature))
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var addScope func(*types.Package)
	addScope = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			addScope(q)
		}
	}
	var named []*types.TypeName
	for _, p := range pkgs {
		addScope(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		internal := strings.Contains("/"+p.path+"/", "/internal/")
		for _, f := range p.files {
			res.addFile(l.fset, p, f, internal)
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn)
			}
		}
	}
	for _, tn := range named {
		nt, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < nt.NumMethods(); i++ {
			m := nt.Method(i)
			for _, sig := range ifaces[m.Name()] {
				if types.Identical(sig, m.Type()) {
					res.methods[tn] = append(res.methods[tn], m)
					break
				}
			}
		}
	}
	return res, nil
}

// addFile adds f's declarations and their references. A declaration of
// a package outside internal/ is a root; so is every init, main and
// blank var.
func (r *reachResult) addFile(fset *token.FileSet, p *reachPkg, f *ast.File, internal bool) {
	rel := p.path
	if i := strings.LastIndex(rel, "/internal/"); i >= 0 {
		rel = rel[i+len("/internal/"):]
	}
	declare := func(obj types.Object, kind, recv string, node ast.Node) {
		switch {
		case !internal || obj.Name() == "init" || (obj.Name() == "main" && p.types.Name() == "main"):
			r.roots = append(r.roots, obj)
		default:
			key := rel + "." + obj.Name()
			if recv != "" {
				key = rel + "." + recv + "." + obj.Name()
			}
			start, end := fset.Position(node.Pos()), fset.Position(node.End())
			r.decls = append(r.decls, &reachDecl{key: key, kind: kind, pos: start, lines: end.Line - start.Line + 1, obj: obj})
		}
	}
	uses := func(nodes ...ast.Node) []types.Object {
		var out []types.Object
		for _, n := range nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if o := p.info.Uses[id]; o != nil {
						out = append(out, reachOrigin(o))
					}
				}
				return true
			})
		}
		return out
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj := p.info.Defs[d.Name]
			kind, recv := "func", ""
			if d.Recv != nil {
				kind, recv = "method", reachRecvName(d.Recv.List[0].Type)
			}
			declare(obj, kind, recv, d)
			r.edges[obj] = uses(d)
		case *ast.GenDecl:
			var iotaZero []types.Object
			var implicit []ast.Node // what an implicitly repeated const spec uses
			for i, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					obj := p.info.Defs[s.Name]
					r.edges[obj] = uses(s)
					// An alias holds no code: it names a type declared
					// and checked elsewhere, so it is never a finding.
					if !s.Assign.IsValid() || !internal {
						declare(obj, "type", "", s)
					}
				case *ast.ValueSpec:
					nodes := []ast.Node{s}
					if d.Tok == token.CONST && len(s.Values) > 0 {
						implicit = nil
						if s.Type != nil {
							implicit = append(implicit, s.Type)
						}
						for _, v := range s.Values {
							implicit = append(implicit, v)
						}
					} else if d.Tok == token.CONST {
						nodes = append(nodes, implicit...)
					}
					used := uses(nodes...)
					kind, node := "var", ast.Node(s)
					if d.Tok == token.CONST {
						kind = "const"
					}
					if len(d.Specs) == 1 {
						node = d
					}
					var objs []types.Object
					for _, name := range s.Names {
						if name.Name == "_" {
							r.roots = append(r.roots, used...)
							continue
						}
						obj := p.info.Defs[name]
						objs = append(objs, obj)
						declare(obj, kind, "", node)
						r.edges[obj] = append(used, iotaZero...)
					}
					if i == 0 && d.Tok == token.CONST && reachUsesIota(p.info, s.Values) {
						iotaZero = objs
					}
				}
			}
		}
	}
}

// reachOrigin maps an instantiated generic function, method or field to
// its declaration.
func reachOrigin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func reachUsesIota(info *types.Info, values []ast.Expr) bool {
	found := false
	for _, v := range values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("iota") {
				found = true
			}
			return !found
		})
	}
	return found
}

// reachRecvName is the base type name of a method receiver expression.
func reachRecvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

type reachPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// reachLoader type-checks the packages of the modules it knows from
// source and imports everything else, the standard library, through
// the source importer.
type reachLoader struct {
	fset *token.FileSet
	mods map[string]string // module path → directory
	pkgs map[string]*reachPkg
	std  types.ImporterFrom
}

// pathOf returns the import path of the package in dir, by the module
// whose directory is the longest prefix of dir.
func (l *reachLoader) pathOf(dir string) (string, bool) {
	best, bestDir := "", ""
	for mod, mdir := range l.mods {
		rel, err := filepath.Rel(mdir, dir)
		if err != nil || strings.HasPrefix(rel, "..") || len(mdir) < len(bestDir) {
			continue
		}
		best, bestDir = mod, mdir
		if rel != "." {
			best = mod + "/" + filepath.ToSlash(rel)
		}
	}
	return best, bestDir != ""
}

// dirOf returns the directory of a module package, by the module whose
// path is the longest prefix of path.
func (l *reachLoader) dirOf(path string) (string, bool) {
	best, bestMod := "", ""
	for mod, mdir := range l.mods {
		if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(bestMod) {
			best, bestMod = filepath.Join(mdir, filepath.FromSlash(strings.TrimPrefix(path[len(mod):], "/"))), mod
		}
	}
	return best, bestMod != ""
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *reachLoader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirOf(path); !ok {
		return l.std.ImportFrom(path, srcDir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("no Go files for %s", path)
	}
	return p.types, nil
}

// load type-checks the non-test files of a module package; it returns
// nil for a directory without any.
func (l *reachLoader) load(path string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, _ := l.dirOf(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{path: path}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}
