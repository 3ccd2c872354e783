package tesc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFuzzTargetsRunInCI fails unless every fuzz target of the module
// is fuzzed by CI's 10 s smoke step and by the nightly workflow, each
// under the package that declares it, and unless every target those
// workflows fuzz exists: go test -fuzz with a pattern matching no
// target passes, so a renamed target would silently drop out of both.
func TestFuzzTargetsRunInCI(t *testing.T) {
	targets, err := fuzzTargets(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	declared := make(map[string]bool, len(targets))
	for _, target := range targets {
		declared[target] = true
	}
	for _, wf := range []struct{ file, fuzztime string }{
		{filepath.Join(".github", "workflows", "ci.yml"), "-fuzztime=10s"},
		{filepath.Join(".github", "workflows", "nightly.yml"), ""},
	} {
		raw, err := os.ReadFile(wf.file)
		if err != nil {
			t.Fatal(err)
		}
		runs := fuzzRuns(string(raw), wf.fuzztime)
		for _, target := range targets {
			if !runs[target] {
				t.Errorf("%s does not fuzz %s %s", wf.file, target, wf.fuzztime)
			}
		}
		for run := range runs {
			if !declared[run] {
				t.Errorf("%s fuzzes %s, which is not a fuzz target of the module", wf.file, run)
			}
		}
	}
}

// fuzzTargets lists the module's fuzz targets as "Name ./dir", skipping
// testdata, hidden directories and nested modules.
func fuzzTargets(root string) ([]string, error) {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				out = append(out, fn.Name.Name+" ./"+filepath.ToSlash(filepath.Dir(path)))
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// fuzzRuns returns the targets a workflow fuzzes, as "Name ./dir", read
// from its go test lines that carry -fuzz= and, when non-empty, the
// given -fuzztime. The pattern may be quoted and anchored.
func fuzzRuns(workflow, fuzztime string) map[string]bool {
	runs := map[string]bool{}
	for _, line := range strings.Split(workflow, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != "go" || fields[1] != "test" ||
			(fuzztime != "" && !strings.Contains(line, fuzztime)) {
			continue
		}
		for _, f := range fields {
			if pattern, ok := strings.CutPrefix(f, "-fuzz="); ok {
				name := strings.Trim(pattern, `'"^$`)
				runs[name+" "+fields[len(fields)-1]] = true
			}
		}
	}
	return runs
}
