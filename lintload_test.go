package cagc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The source lints (map ranges, code only tests reach) read one
// type-checked load of the module's non-test files. Each package is
// checked once, dependencies first in `go list -deps` order, and
// imports the module packages checked before it from a map; the
// standard library comes from the toolchain's export data. A `go list`
// with profile-guided builds names a package once per main package
// ("p [cagc/cmd/cagcsim]"); the bracket is cut and the repeats dropped.

// lintPackage is one type-checked package of non-test files.
type lintPackage struct {
	Path  string
	Name  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// lintModule is a module loaded for linting: its packages in
// dependency order, sharing one file set.
type lintModule struct {
	Dir      string // the module's root directory
	Fset     *token.FileSet
	Packages []*lintPackage
}

// Package returns the loaded package with import path path, or nil.
func (m *lintModule) Package(path string) *lintPackage {
	for _, p := range m.Packages {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// loadLintModule type-checks the non-test files of every package that
// `go list ./...` names in dir, the module's root.
func loadLintModule(dir string) (*lintModule, error) {
	type listed struct {
		ImportPath, Name, Dir string
		GoFiles, Imports      []string
		Standard              bool
		Export                string
	}
	list := func(args ...string) ([]listed, error) {
		cmd := exec.Command("go", append([]string{"list"}, args...)...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
		}
		var pkgs []listed
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var lp listed
			if err := dec.Decode(&lp); err == io.EOF {
				return pkgs, nil
			} else if err != nil {
				return nil, err
			}
			lp.ImportPath, _, _ = strings.Cut(lp.ImportPath, " [")
			pkgs = append(pkgs, lp)
		}
	}
	all, err := list("-deps", "-json=ImportPath,Name,Dir,GoFiles,Imports,Standard", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []listed
	seen := map[string]bool{}
	isStd := map[string]bool{}
	for _, lp := range all {
		if lp.Standard {
			isStd[lp.ImportPath] = true
		} else if !seen[lp.ImportPath] {
			seen[lp.ImportPath] = true
			pkgs = append(pkgs, lp)
		}
	}
	// One more `go list` finds the export data of every standard
	// package the module imports, rather than one per import.
	stdArgs := []string{"-export", "-json=ImportPath,Export"}
	for _, lp := range pkgs {
		for _, imp := range lp.Imports {
			imp, _, _ = strings.Cut(imp, " [")
			if isStd[imp] && !seen[imp] {
				seen[imp] = true
				stdArgs = append(stdArgs, imp)
			}
		}
	}
	exports := map[string]string{}
	if len(stdArgs) > 2 {
		stdPkgs, err := list(stdArgs...)
		if err != nil {
			return nil, err
		}
		for _, lp := range stdPkgs {
			exports[lp.ImportPath] = lp.Export
		}
	}

	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m := &lintModule{Dir: abs, Fset: token.NewFileSet()}
	std := importer.ForCompiler(m.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	for _, lp := range pkgs {
		p := &lintPackage{Path: lp.ImportPath, Name: lp.Name, Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(m.Fset, filepath.Join(lp.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			p.Files = append(p.Files, f)
		}
		conf := types.Config{Importer: imp}
		if p.Types, err = conf.Check(p.Path, m.Fset, p.Files, p.Info); err != nil {
			return nil, fmt.Errorf("typechecking %s: %v", p.Path, err)
		}
		checked[p.Path] = p.Types
		m.Packages = append(m.Packages, p)
	}
	return m, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

var (
	repoLintOnce   sync.Once
	repoLintModule *lintModule
	repoLintErr    error
)

// loadRepoForLint returns the load of this module, made once per test
// binary.
func loadRepoForLint(t *testing.T) *lintModule {
	t.Helper()
	repoLintOnce.Do(func() { repoLintModule, repoLintErr = loadLintModule(".") })
	if repoLintErr != nil {
		t.Fatal(repoLintErr)
	}
	return repoLintModule
}
