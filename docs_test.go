package pagerankvm

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
