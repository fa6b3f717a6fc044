package golint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded compilation unit: a directory's non-test .go
// files (plus _test.go files when Options.IncludeTests is set),
// parsed with comments and type-checked best-effort.
type Package struct {
	Path  string // the directory as given to the loader
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypesErr records the first type-check error. Analysis proceeds
	// with partial type information; analyzers degrade to syntactic
	// checks where types are missing.
	TypesErr error
}

// Loader loads and type-checks packages. One Loader shares a file set
// and an importer across packages, so repeated imports (the standard
// library, repro/internal/netlist, ...) are type-checked once.
type Loader struct {
	Opts Options
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader with a fresh file set and a source
// importer (stdlib "source" compiler mode: imports are type-checked
// from source, so no compiled export data is required).
func NewLoader(opts Options) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Opts: opts,
		fset: fset,
		imp:  importer.ForCompiler(fset, "source", nil),
	}
}

// LoadDir parses and type-checks the Go package in one directory. A
// directory with no eligible .go files returns (nil, nil). Parse
// errors are hard errors (exit-code-2 material for the CLI);
// type-check errors are soft (recorded in Package.TypesErr).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !l.Opts.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	pkg := &Package{Path: filepath.ToSlash(dir), Fset: l.fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("golint: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	// _test.go files may declare a foo_test external test package
	// alongside foo; type-check each package name separately so the
	// checker never sees a mixed file list.
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	byName := map[string][]*ast.File{}
	for _, f := range pkg.Files {
		byName[f.Name.Name] = append(byName[f.Name.Name], f)
	}
	conf := types.Config{
		Importer: l.imp,
		Error: func(err error) {
			if pkg.TypesErr == nil {
				pkg.TypesErr = err
			}
		},
	}
	var pkgNames []string
	for name := range byName {
		pkgNames = append(pkgNames, name)
	}
	sort.Strings(pkgNames)
	for _, name := range pkgNames {
		tp, err := conf.Check(dir, l.fset, byName[name], pkg.Info)
		if err != nil && pkg.TypesErr == nil {
			pkg.TypesErr = err
		}
		if pkg.Types == nil {
			pkg.Types = tp
		}
	}
	return pkg, nil
}

// ExpandDirs resolves files, directories and Go-style dir/...
// patterns into a sorted list of package directories containing .go
// files, skipping testdata, vendor, hidden and underscore-prefixed
// directories — the same walking contract as cmd/netlint.
func ExpandDirs(args []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, arg := range args {
		recursive := strings.HasSuffix(arg, "...")
		root := strings.TrimSuffix(arg, "...")
		root = strings.TrimSuffix(root, string(filepath.Separator))
		if root == "" {
			root = "."
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			// A single .go file: lint its directory's package.
			if strings.HasSuffix(root, ".go") {
				add(filepath.Dir(root))
				continue
			}
			return nil, fmt.Errorf("golint: %s is neither a directory nor a .go file", root)
		}
		if !recursive {
			if hasGoFiles(root) {
				add(root)
			}
			continue
		}
		err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			return true
		}
	}
	return false
}
