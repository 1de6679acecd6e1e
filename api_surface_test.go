package qoz_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestAPISurfaceHasNoKindTwins keeps the public API at one mechanism per
// operation. The sample kind is a type parameter (Encode[T], ReadRegionT[T],
// ...) with at most a one-line float32 method beside it, so no exported
// function or method of packages qoz and qoz/store may carry its kind in
// its name, and nothing removed may linger behind a deprecation marker.
func TestAPISurfaceHasNoKindTwins(t *testing.T) {
	allowed := map[string]bool{
		"Store.Float64": true, // the predicate "does this store hold float64 samples"
	}
	marker := "Deprecated" + ":" // spelled apart so this file passes its own check
	for _, dir := range []string{".", "store"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				for _, cg := range file.Comments {
					if strings.Contains(cg.Text(), marker) {
						t.Errorf("%s: %s marker at %s — delete the wrapper instead", path, marker, fset.Position(cg.Pos()))
					}
				}
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || !fn.Name.IsExported() {
						continue
					}
					name := fn.Name.Name
					if fn.Recv != nil && len(fn.Recv.List) == 1 {
						name = receiverName(fn.Recv.List[0].Type) + "." + name
					}
					for _, suffix := range []string{"Float64", "32", "64"} {
						if strings.HasSuffix(name, suffix) && !allowed[name] {
							t.Errorf("%s: exported %s names a sample kind; make it generic over qoz.Float", path, name)
						}
					}
				}
			}
		}
	}
}

// receiverName returns the base type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverName(x.X)
	case *ast.IndexExpr:
		return receiverName(x.X)
	case *ast.IndexListExpr:
		return receiverName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
