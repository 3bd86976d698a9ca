package cagc

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Code that only tests reach is code the product does not run: it
// costs reading and keeping, and its tests vouch for nothing the
// simulator does. This lint walks references out from every way into
// the program — each main, each init, each package-level variable
// initializer, and the short allowlist below — over the non-test files
// of the whole module (lintload_test.go), and fails on every
// package-level function, method, type, constant or variable that the
// walk does not reach.
//
// A reference is any use of a name (types.Info.Uses), not only a call,
// so function and method values count; a generic instance counts as
// its origin. A method also counts as reached when its receiver type
// is reached and its name is a method of an interface, either one
// declared in the module or one of dispatchMethodNames, since a call
// through an interface names the interface's method, not the
// implementation's.
//
// What to do with a finding: delete it; if a test compares against it,
// move it into that package's _test.go files (an accessor a test needs
// goes in export_test.go); only if another package's tests need it,
// allowlist it with the test's name as the reason.

// reachAllowlist roots names that nothing in the module reaches, each
// with the reason it stays. Keys are the package path, the receiver
// type for a method, and the name.
var reachAllowlist = map[string]string{
	// The benchmark harness is a separate module (bench/) that calls
	// these; they stay roots until the benchmark's next revision moves
	// it off them.
	"cagc/internal/event.NewSimOpts":         "bench/kernels.go eventKernel",
	"cagc/internal/event.SchedAuto":          "bench/kernels.go eventKernel",
	"cagc/internal/event.ArgHandler":         "bench/kernels.go eventKernel",
	"cagc/internal/event.Sim.AtArg":          "bench/kernels.go eventKernel",
	"cagc/internal/event.Sim.Step":           "bench/kernels.go eventKernel",
	"cagc/internal/flash.Device.Invalidate":  "bench/kernels.go flashKernel",
	"cagc/internal/flash.Device.ProgramPage": "bench/kernels.go flashKernel",
	"cagc/internal/flash.Geometry.PageOf":    "bench/kernels.go flashKernel",
	"cagc/internal/flash.Device.Stats":       "bench/kernels.go ftlKernel",
	"cagc/internal/ftl.FTL.Device":           "bench/kernels.go ftlKernel",
	"cagc/internal/ftl.FTL.ForceGC":          "bench/kernels.go ftlKernel",
	"cagc/internal/ftl.FTL.Index":            "bench/kernels.go ftlKernel",
	"cagc/internal/dedup.Index.Stats":        "bench/kernels.go ftlKernel",
	"cagc/internal/sim.Runner.FTL":           "bench/kernels.go ftlKernel",
	"cagc/internal/sim.Snapshot.Offset":      "bench/kernels.go simKernel",
	"cagc/internal/obs.Recorder.Reset":       "bench/kernels.go poolFleetKernel",
	"cagc.WriteJSON":                         "bench/kernels.go cagcKernel and bench/replica.go",

	"cagc.TraceRequest": "names the element type of the exported TraceSource",
	"cagc/internal/sim.ResetCloneGauge": "TestFleetCloneResidencyBounded (internal/fleet) zeroes the " +
		"process-wide peak before it measures",
}

// dispatchMethodNames are standard-library interface methods the
// module's types implement for fmt, io, net/http, sort and
// encoding/json to call.
var dispatchMethodNames = []string{
	"String", "Error", "Unwrap", "Format",
	"Read", "Write", "Close",
	"ServeHTTP",
	"Len", "Less", "Swap", "Push", "Pop",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

func TestNoTestOnlyCode(t *testing.T) {
	m := loadRepoForLint(t)
	for _, f := range unreachedDecls(m, reachAllowlist) {
		t.Error(f)
	}
}

// unreachedDecls walks m from its roots and returns one finding per
// package-level declaration the walk misses, in source order, after
// one per allowlist entry that names nothing or that the product
// reaches anyway.
func unreachedDecls(m *lintModule, allow map[string]string) []string {
	inModule := map[*types.Package]bool{}
	for _, p := range m.Packages {
		inModule[p.Types] = true
	}
	dispatch := map[string]bool{}
	for _, name := range dispatchMethodNames {
		dispatch[name] = true
	}

	// Every package-level declaration with the names it uses, and the
	// names the roots use.
	decls := map[types.Object][]types.Object{}
	var roots []types.Object
	for _, p := range m.Packages {
		uses := func(n ast.Node) []types.Object {
			var objs []types.Object
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := originOf(p.Info.Uses[id]); obj != nil && inModule[obj.Pkg()] {
						objs = append(objs, obj)
					}
				}
				return true
			})
			return objs
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, field := range it.Methods.List {
						for _, name := range field.Names {
							dispatch[name.Name] = true
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					refs := uses(d)
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, refs...)
						continue
					}
					obj := p.Info.Defs[d.Name]
					decls[obj] = refs
					if d.Recv == nil && d.Name.Name == "main" && p.Name == "main" {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							decls[p.Info.Defs[spec.Name]] = uses(spec)
						case *ast.ValueSpec:
							refs := uses(spec)
							if d.Tok == token.VAR && len(spec.Values) > 0 {
								roots = append(roots, refs...)
								refs = nil
							}
							for _, name := range spec.Names {
								if name.Name == "_" {
									continue
								}
								// Reaching a value reaches its declared
								// type, and so the methods fmt calls.
								obj, objRefs := p.Info.Defs[name], refs
								if named, ok := obj.Type().(*types.Named); ok {
									objRefs = append([]types.Object{named.Obj()}, refs...)
								}
								decls[obj] = objRefs
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	var walk func(types.Object)
	walk = func(obj types.Object) {
		if reached[obj] {
			return
		}
		reached[obj] = true
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); dispatch[m.Name()] {
						walk(m)
					}
				}
			}
		}
		for _, use := range decls[obj] {
			walk(use)
		}
	}
	for _, obj := range roots {
		walk(obj)
	}

	byKey := map[string]types.Object{}
	for obj := range decls {
		byKey[reachKey(obj)] = obj
	}
	var findings []string
	keys := make([]string, 0, len(allow))
	for key := range allow {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var allowed []types.Object
	for _, key := range keys {
		obj, ok := byKey[key]
		switch {
		case !ok:
			findings = append(findings, "allowlist entry "+key+" names no declaration; drop it")
		case reached[obj]:
			findings = append(findings, "allowlist entry "+key+" is reached without it; drop it")
		default:
			allowed = append(allowed, obj)
		}
	}
	for _, obj := range allowed {
		walk(obj)
	}

	var missed []types.Object
	for obj := range decls {
		if !reached[obj] {
			missed = append(missed, obj)
		}
	}
	sort.Slice(missed, func(i, j int) bool {
		a, b := m.Fset.Position(missed[i].Pos()), m.Fset.Position(missed[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, obj := range missed {
		pos := m.Fset.Position(obj.Pos())
		if rel, err := filepath.Rel(m.Dir, pos.Filename); err == nil {
			pos.Filename = rel
		}
		findings = append(findings, pos.String()+": "+reachKey(obj)+
			" is reached only from tests, or from nothing; delete it or move it into a _test.go file")
	}
	return findings
}

// originOf maps a generic instance's function or field to the one
// declared.
func originOf(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// reachKey names a declaration as the allowlist does: package path,
// receiver type for a method, and name.
func reachKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// TestReachabilityLintFixture walks testdata/reachlint, a module built
// to hold each case once. The walk flags a function reached only from
// a _test.go file and one reached only through another unreached
// function, and an allowlist entry that names nothing or that the
// product reaches anyway. It leaves alone what main reaches by a call,
// a function value or a generic instance; methods reached by dispatch
// through a standard-library interface and through one of the module's
// own; an allowlisted root; and what init and a variable initializer
// reach.
func TestReachabilityLintFixture(t *testing.T) {
	m, err := loadLintModule(filepath.Join("testdata", "reachlint"))
	if err != nil {
		t.Fatal(err)
	}
	got := unreachedDecls(m, map[string]string{
		"reachfix/lib.Kept": "a root",
		"reachfix/lib.Gone": "names nothing",
		"reachfix/lib.Used": "reached from main",
	})
	want := []string{
		"allowlist entry reachfix/lib.Gone names no declaration; drop it",
		"allowlist entry reachfix/lib.Used is reached without it; drop it",
		"lib/lib.go:43:6: reachfix/lib.TestOnly is reached only from tests, or from nothing; delete it or move it into a _test.go file",
		"lib/lib.go:45:6: reachfix/lib.inner is reached only from tests, or from nothing; delete it or move it into a _test.go file",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
