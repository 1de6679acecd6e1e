package qoz_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalExportsHaveCallers keeps the internal packages' exported
// surface to what the program uses: every exported function, and every
// exported method of an exported type, under internal/ must be referenced
// from some non-test Go file of the repository, the bench module
// included. A helper only tests call belongs in its package's _test.go
// files. Functions are matched by package and name; methods by name
// alone, since telling receivers apart would need type checking.
func TestInternalExportsHaveCallers(t *testing.T) {
	allowed := map[string]string{
		"core.DecompressReference": "the root package's float64 tests compare against it across the package boundary",
		"pool.PoisonSlabs":         "the store, cluster and qozd tests switch the release checks on across the package boundary",
		"pool.Panic.Unwrap":        "errors.Is and errors.As call it through the error chain",
	}
	type decl struct {
		dir, pkg, name, recv string
	}
	var decls []decl
	funcRefs := map[string]bool{}    // "dir.Name": a function referenced by package and name
	methodRefs := map[string]bool{}  // "Name": any selector of that name
	notRefs := map[*ast.Ident]bool{} // declared names and selected names, which the ident case skips

	files := map[string][]*ast.File{} // by directory
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			notRefs[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
				continue
			}
			d := decl{dir: dir, pkg: f.Name.Name, name: fn.Name.Name}
			if fn.Recv != nil {
				if d.recv = receiverName(fn.Recv.List[0].Type); !ast.IsExported(d.recv) {
					continue
				}
			}
			decls = append(decls, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported function under internal/")
	}

	for dir, fs := range files {
		for _, f := range fs {
			imports := map[string]string{} // local name -> repository directory
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				rel, ok := strings.CutPrefix(p, "qoz/")
				if !ok {
					continue
				}
				name := path.Base(rel)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = rel
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					notRefs[x.Sel] = true
					methodRefs[x.Sel.Name] = true
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						funcRefs[imports[id.Name]+"."+x.Sel.Name] = true
					}
				case *ast.Ident:
					if !notRefs[x] {
						funcRefs[dir+"."+x.Name] = true
					}
				}
				return true
			})
		}
	}

	var unused []string
	for _, d := range decls {
		name := d.pkg + "." + d.name
		used := funcRefs[d.dir+"."+d.name]
		if d.recv != "" {
			name = d.pkg + "." + d.recv + "." + d.name
			used = methodRefs[d.name]
		}
		if !used && allowed[name] == "" {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but no non-test file calls it: move it into a _test.go file of its package", name)
	}
}
