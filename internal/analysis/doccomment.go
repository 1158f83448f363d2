package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Doccomment enforces godoc coverage on the core library packages.
//
// The reproduction's packages are its public face: lattice, pagerank,
// ranktable, placement, resource, obs, record and serve together form
// the pipeline README.md documents, and `go doc` on any of them must
// explain the symbol, not echo its signature. Every exported top-level
// symbol therefore needs a doc comment, and — per the godoc
// convention — the comment's first word must be the symbol's name so
// the rendered index reads as prose ("Fits reports whether...").
//
// Three shapes satisfy the rule:
//
//   - a comment directly on the declaration, starting with the name;
//   - for a one-spec type/const/var declaration, the comment on the
//     enclosing `type`/`const`/`var` keyword;
//   - for a grouped const/var block, a comment on the group: the block
//     documents a family ("Sentinel errors surfaced by..."), so
//     per-name first-word checks are waived inside it.
//
// Methods on unexported types are skipped (godoc hides them), as are
// struct fields and interface methods (the type's doc owns those).
// The analyzer only fires in the core packages named above — commands,
// experiments and the analysis layer itself document at their own
// discretion. `make docs-check` runs it alone; like every analyzer it
// tolerates nothing in bulk, only a //prvmlint:allow directive with a
// reason on the flagged line.
var Doccomment = &Analyzer{
	Name: "doccomment",
	Doc:  "exported symbols of the core library packages need godoc comments starting with the symbol name",
	Run:  runDoccomment,
}

// doccommentPackages gates the analyzer: package names of the core
// library pipeline (README.md "Architecture").
var doccommentPackages = map[string]bool{
	"lattice":   true,
	"pagerank":  true,
	"ranktable": true,
	"placement": true,
	"resource":  true,
	"obs":       true,
	"record":    true,
	"serve":     true,
}

func runDoccomment(pass *Pass) error {
	if !doccommentPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDoc(pass, d)
			case *ast.GenDecl:
				checkGenDoc(pass, d)
			}
		}
	}
	return nil
}

// checkFuncDoc reports an exported function or method without a
// conventional doc comment.
func checkFuncDoc(pass *Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() {
		return
	}
	if d.Recv != nil && !exportedReceiver(d.Recv) {
		return // godoc hides methods of unexported types
	}
	kind := "function"
	if d.Recv != nil {
		kind = "method"
	}
	reportDoc(pass, d.Pos(), d.Doc, kind, d.Name.Name, true)
}

// checkGenDoc reports exported names of one type/const/var declaration
// that no comment covers.
func checkGenDoc(pass *Pass, d *ast.GenDecl) {
	// The keyword comment covers a single spec as if it were the
	// spec's own; on a group it documents the family.
	single := len(d.Specs) == 1 && !d.Lparen.IsValid()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			doc := s.Doc
			if doc == nil && single {
				doc = d.Doc
			}
			reportDoc(pass, s.Pos(), doc, "type", s.Name.Name, true)
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				doc := s.Doc
				strict := true
				if doc == nil {
					// The group comment documents the family; don't
					// demand each member's name leads it.
					doc, strict = d.Doc, single
				}
				reportDoc(pass, name.Pos(), doc, declKind(d), name.Name, strict)
				break // one finding per spec line
			}
		}
	}
}

// reportDoc files the finding for one symbol: missing comment, or
// (when strict) a comment that does not lead with the symbol's name.
func reportDoc(pass *Pass, pos token.Pos, doc *ast.CommentGroup, kind, name string, strict bool) {
	if doc == nil || strings.TrimSpace(doc.Text()) == "" {
		pass.Reportf(pos, "exported %s %s lacks a doc comment", kind, name)
		return
	}
	if !strict {
		return
	}
	if first := firstWord(doc.Text()); first != name {
		pass.Reportf(pos, "doc comment for %s %s should start with %q, not %q", kind, name, name, first)
	}
}

// declKind names a GenDecl's keyword for diagnostics.
func declKind(d *ast.GenDecl) string {
	if d.Tok == token.CONST {
		return "const"
	}
	return "var"
}

// exportedReceiver reports whether the method's receiver base type is
// exported, unwrapping pointers and type parameters.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// firstWord returns the first whitespace-delimited word of a doc
// comment's text, with a trailing period or comma stripped so "Fits,
// the..." still matches.
func firstWord(text string) string {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return ""
	}
	return strings.TrimRight(fields[0], ".,:;")
}
