package trace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoImportShadowing asserts that no local declaration in this package
// shadows an imported package name. trace.Run once declared a local
// observer list named obs, hiding the obs metrics package for the
// rest of the function — the kind of shadow go vet and staticcheck both
// accept silently, so this test is the guard that keeps it from coming
// back.
func TestNoImportShadowing(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		imported := map[string]bool{}
		for _, imp := range f.Imports {
			name := ""
			if imp.Name != nil {
				name = imp.Name.Name
			} else {
				p, _ := strconv.Unquote(imp.Path.Value)
				name = p[strings.LastIndex(p, "/")+1:]
			}
			if name != "_" && name != "." {
				imported[name] = true
			}
		}
		report := func(id *ast.Ident) {
			if id != nil && imported[id.Name] {
				t.Errorf("%s: local %q shadows the imported package of the same name",
					fset.Position(id.Pos()), id.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec: // var / const
				for _, id := range n.Names {
					report(id)
				}
			case *ast.AssignStmt: // :=
				if n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							report(id)
						}
					}
				}
			case *ast.FuncType: // parameters and results
				for _, fl := range []*ast.FieldList{n.Params, n.Results} {
					if fl == nil {
						continue
					}
					for _, field := range fl.List {
						for _, id := range field.Names {
							report(id)
						}
					}
				}
			case *ast.RangeStmt:
				if n.Tok == token.DEFINE {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok {
							report(id)
						}
					}
				}
			}
			return true
		})
	}
}
