package pagerankvm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var (
	cmdRef    = regexp.MustCompile(`cmd/(prvm-[a-z0-9-]+)|go run \./cmd/([A-Za-z0-9_-]+)`)
	designRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//)*§([0-9]+[a-z]?)`)
	designSec = regexp.MustCompile(`(?m)^## ([0-9]+[a-z]?)\. `)
)

// TestDocReferencesResolve fails when a document points at nothing:
// every command path or `go run` of a command in the Markdown files
// (the verify skill's included) and the Go sources must name an
// existing cmd/ directory, and every DESIGN.md section the Go sources
// cite by number must be a "## N." heading of DESIGN.md. Of the
// top-level Markdown files only those that document the program as it
// stands are read: the change log and the plans speak of commands that
// were and commands that may be.
func TestDocReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designSec.FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	current := map[string]bool{
		"API.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "README.md": true,
		"PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true,
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		isGo := strings.HasSuffix(path, ".go")
		topLevel := !strings.ContainsRune(path, filepath.Separator)
		if !isGo && (!strings.HasSuffix(path, ".md") || topLevel && !current[path]) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range cmdRef.FindAllStringSubmatch(string(src), -1) {
			dir := m[1] + m[2]
			if st, err := os.Stat(filepath.Join("cmd", dir)); err != nil || !st.IsDir() {
				t.Errorf("%s: %q names no cmd/ directory", path, m[0])
			}
		}
		if isGo {
			for _, m := range designRef.FindAllStringSubmatch(string(src), -1) {
				if !sections[m[1]] {
					t.Errorf("%s: %q cites no DESIGN.md heading", path, m[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) == 0 {
		t.Fatal("no numbered headings found in DESIGN.md")
	}
}

// TestMetricCatalogMatchesCode fails when the documented instruments
// and the registered ones differ. The code side is every string
// literal that non-test Go outside benchmarks/ and testdata/ passes
// as the name to a Counter, Gauge or Histogram call; the documented
// side is README's "Metric catalog" table (layer in the first column,
// metric names in the second) plus API.md's serve and descheduler
// lists, from "Serve-layer metrics:" to the next heading.
func TestMetricCatalogMatchesCode(t *testing.T) {
	code := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "benchmarks", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Counter" && sel.Sel.Name != "Gauge" && sel.Sel.Name != "Histogram") {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value) // the parser accepted it
				code[name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	docs := map[string]bool{}
	readme := docSection(t, "README.md", "Metric catalog", "\n\n#")
	backticked := regexp.MustCompile("`([a-z_.]+)`")
	for _, line := range strings.Split(readme, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		layer := backticked.FindStringSubmatch(cells[1])
		if layer == nil {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(strings.Join(cells[2:], "|"), -1) {
			docs[layer[1]+"."+m[1]] = true
		}
	}
	for _, m := range backticked.FindAllStringSubmatch(docSection(t, "API.md", "Serve-layer metrics:", "\n## "), -1) {
		docs[m[1]] = true
	}

	if len(code) == 0 || len(docs) == 0 {
		t.Fatalf("found %d registered and %d documented instruments", len(code), len(docs))
	}
	for _, name := range sortedKeys(code) {
		if !docs[name] {
			t.Errorf("%s is registered in code but in neither README's metric catalog nor API.md's serve lists", name)
		}
	}
	for _, name := range sortedKeys(docs) {
		if !code[name] {
			t.Errorf("%s is documented but no non-test code registers it", name)
		}
	}
}

// docSection returns the text of file from the first occurrence of
// start up to the next occurrence of end after it.
func docSection(t *testing.T, file, start, end string) string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(src), start)
	if !ok {
		t.Fatalf("%s: no %q", file, start)
	}
	section, _, _ := strings.Cut(rest, end)
	return section
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
