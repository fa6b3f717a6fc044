package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golint"
)

// TestNoUnreferencedFuncs fails on every package-level function (one
// with no receiver) in non-test code that no non-test file of the
// module references outside the function's own body. A reference is
// pkg.F through an import of F's package, or a bare F inside F's own
// package. main and init are excepted, and so is internal/testutil,
// whose non-test files exist to be shared by tests. Methods are out of
// reach: a call through an interface names no receiver type.
func TestNoUnreferencedFuncs(t *testing.T) {
	dirs, err := golint.ExpandDirs([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	type pkgFile struct {
		pkg  string // import path
		file *ast.File
	}
	fset := token.NewFileSet()
	var files []pkgFile
	pkgName := map[string]string{} // import path → package name
	for _, dir := range dirs {
		pkg := path.Join("repro", filepath.ToSlash(dir))
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, pkgFile{pkg, f})
			pkgName[pkg] = f.Name.Name
		}
	}

	decls := map[string]*ast.FuncDecl{} // "import/path.F" → F
	for _, pf := range files {
		if pf.pkg == "repro/internal/testutil" {
			continue
		}
		for _, d := range pf.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Recv == nil && fd.Name.Name != "main" && fd.Name.Name != "init" {
				decls[pf.pkg+"."+fd.Name.Name] = fd
			}
		}
	}

	referenced := map[string]bool{}
	for _, pf := range files {
		imports := map[string]string{} // local name → import path
		for _, spec := range pf.file.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			name, ok := pkgName[p]
			if !ok {
				continue // outside the module
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		for _, d := range pf.file.Decls {
			var declared *ast.Ident // a function's or method's own name is no reference
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared = fd.Name
				if fd.Recv == nil {
					self = pf.pkg + "." + fd.Name.Name
				}
			}
			ref := func(key string) {
				if key != self {
					referenced[key] = true
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					// pkg.F; x.F on a value names a field or method.
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
						if p, ok := imports[x.Name]; ok {
							ref(p + "." + n.Sel.Name)
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					// A bare F: unresolved (declared in another file of
					// the package) or resolved to a function.
					if n != declared && (n.Obj == nil || n.Obj.Kind == ast.Fun) {
						ref(pf.pkg + "." + n.Name)
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}

	var dead []string
	for key, fd := range decls {
		if !referenced[key] {
			pos := fset.Position(fd.Pos())
			dead = append(dead, pos.Filename+":"+strconv.Itoa(pos.Line)+": "+fd.Name.Name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no reference outside tests and its own body", d)
	}
}
