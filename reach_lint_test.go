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
// walk does not reach. It also fails on every struct field that no
// non-test code reads (structFields): a counter only its increments
// touch is work the product never shows.
//
// A reference is any use of a name (types.Info.Uses), not only a call,
// so function and method values count; a generic instance counts as
// its origin. A method also counts as reached when its receiver type
// is reached and its name is a method of an interface, either one
// declared in the module or one of dispatchMethodNames, since a call
// through an interface names the interface's method, not the
// implementation's.
//
// What to do with a finding: delete it (a field with every write to
// it; a test that read it checks behaviour it can observe instead); if
// a test compares against it,
// move it into that package's _test.go files (an accessor a test needs
// goes in export_test.go); only if another package's tests need it,
// allowlist it with the test's name as the reason.

// reachAllowlist roots names that nothing in the module reaches, and
// fields that nothing reads, each with the reason it stays. Keys are
// the package path, the receiver type for a method or the struct type
// for a field, and the name.
var reachAllowlist = map[string]string{
	// The benchmark harness is a separate module (bench/) that calls
	// these and reads these counters; they stay until the benchmark's
	// next revision moves it off them.
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
	"cagc/internal/flash.Stats.PageReads":    "bench/kernels.go ftlKernel",
	"cagc/internal/flash.Stats.PagePrograms": "bench/kernels.go ftlKernel",
	"cagc/internal/flash.Stats.BlockErases":  "bench/kernels.go ftlKernel",
	"cagc/internal/dedup.Stats.Lookups":      "bench/kernels.go ftlKernel",
	"cagc/internal/dedup.Stats.Hits":         "bench/kernels.go ftlKernel",
	"cagc/internal/dedup.Stats.Inserts":      "bench/kernels.go ftlKernel",
	"cagc/internal/dedup.Stats.Removals":     "bench/kernels.go ftlKernel",
	// The parked-runner cap is process-wide; only the benchmark's clone
	// and re-seed timings fix it.
	"cagc/internal/sim.Snapshot.SetFreeListCap": "bench/kernels.go simKernel",

	"cagc.TraceRequest": "names the element type of the exported TraceSource",
	"cagc/internal/sim.ResetCloneGauge": "TestFleetCloneResidencyBounded (internal/fleet) zeroes the " +
		"process-wide peak before it measures",
	"cagc/internal/sim.CloneStats.Peak": "TestFleetCloneResidencyBounded (internal/fleet) bounds the " +
		"number of runners live at once",
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

	fields, read := structFields(m)
	byKey := map[string]types.Object{}
	for obj := range decls {
		byKey[reachKey(obj)] = obj
	}
	for obj, key := range fields {
		byKey[key] = obj
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
		case fields[obj] != "":
			if read[obj] {
				findings = append(findings, "allowlist entry "+key+" is read without it; drop it")
			}
			read[obj] = true
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
	for obj := range fields {
		if !read[obj] {
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
		if key := fields[obj]; key != "" {
			findings = append(findings, pos.String()+": "+key+
				" is read only by tests, or by nothing; delete it and every write to it")
			continue
		}
		findings = append(findings, pos.String()+": "+reachKey(obj)+
			" is reached only from tests, or from nothing; delete it or move it into a _test.go file")
	}
	return findings
}

// structFields names every named field of a struct type declared in
// m's non-test files, and returns the set of those that some non-test
// code reads. A use of a field reads it unless it is a composite
// literal's key, the left side of = or of an op-assign, or the operand
// of ++ or --. A value passed to an interface-typed parameter is read
// by reflection: every field of its type counts as read (reflectRead).
// Embedded fields are left out: a promoted field or method reads them
// without naming them.
//
// A field is named by the package path, the enclosing type (or, for an
// anonymous struct, the variable or function that declares it), any
// enclosing fields, and its own name.
func structFields(m *lintModule) (fields map[types.Object]string, read map[types.Object]bool) {
	fields = map[types.Object]string{}
	read = map[types.Object]bool{}
	for _, p := range m.Packages {
		var addFields func(prefix string, n ast.Node)
		addFields = func(prefix string, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					addFields(p.Path+"."+ts.Name.Name, ts.Type)
					return false
				}
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						fields[p.Info.Defs[name]] = prefix + "." + name.Name
						addFields(prefix+"."+name.Name, f.Type)
					}
				}
				return false
			})
		}
		writes := map[*ast.Ident]bool{}
		written := func(x ast.Expr) {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				writes[sel.Sel] = true
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					addFields(reachKey(p.Info.Defs[d.Name]), d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							addFields(p.Path+"."+vs.Names[0].Name, vs)
						} else {
							addFields(p.Path, spec)
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					// An elided &T{…} in a []*T literal has type *T.
					t := p.Info.Types[n].Type
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem()
					}
					if _, ok := t.Underlying().(*types.Struct); ok {
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								writes[kv.Key.(*ast.Ident)] = true
							}
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, x := range n.Lhs {
							written(x)
						}
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.CallExpr:
					reflectRead(p.Info, n, read)
				}
				return true
			})
		}
		for id, obj := range p.Info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read[v.Origin()] = true
			}
		}
	}
	return fields, read
}

// reflectRead marks as read every field that call may read by
// reflection: each argument of a concrete type passed to an
// interface-typed parameter (fmt's operands, encoding/json's values)
// has all its fields read, recursively through fields, arrays, slices
// and maps. The recursion follows the argument itself if it is a
// pointer, but no pointer inside it, and stops at a type with a String
// or Error method, which fmt calls instead.
func reflectRead(info *types.Info, call *ast.CallExpr, read map[types.Object]bool) {
	tv := info.Types[call.Fun]
	sig, ok := tv.Type.(*types.Signature)
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return
	}
	seen := map[types.Type]bool{}
	var visit func(t types.Type, top bool)
	visit = func(t types.Type, top bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		for _, name := range []string{"String", "Error"} {
			if obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name); obj != nil {
				if _, ok := obj.(*types.Func); ok {
					return
				}
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			if top {
				visit(u.Elem(), false)
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				visit(u.Field(i).Type(), false)
			}
		case *types.Array:
			visit(u.Elem(), false)
		case *types.Slice:
			visit(u.Elem(), false)
		case *types.Map:
			visit(u.Key(), false)
			visit(u.Elem(), false)
		}
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type()
			if !call.Ellipsis.IsValid() {
				pt = pt.(*types.Slice).Elem()
			}
		default:
			pt = params.At(i).Type()
		}
		if at := info.Types[arg].Type; at != nil && types.IsInterface(pt) && !types.IsInterface(at) {
			visit(at, true)
		}
	}
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
//
// Of struct fields it flags one that is only written, one only a
// _test.go file reads, and an allowlisted field that is read anyway. It
// leaves alone a field encoding/json reads, one fmt's %v reads in a
// type without a String method, one read through a generic instance,
// and an allowlisted field.
func TestReachabilityLintFixture(t *testing.T) {
	m, err := loadLintModule(filepath.Join("testdata", "reachlint"))
	if err != nil {
		t.Fatal(err)
	}
	got := unreachedDecls(m, map[string]string{
		"reachfix/lib.Kept": "a root",
		"reachfix/lib.Gone": "names nothing",
		"reachfix/lib.Used": "reached from main",

		"reachfix/lib.Counters.Kept":  "a root",
		"reachfix/lib.Counters.Stale": "read by Report",
	})
	want := []string{
		"allowlist entry reachfix/lib.Counters.Stale is read without it; drop it",
		"allowlist entry reachfix/lib.Gone names no declaration; drop it",
		"allowlist entry reachfix/lib.Used is reached without it; drop it",
		"lib/fields.go:11:2: reachfix/lib.Counters.Written is read only by tests, or by nothing; delete it and every write to it",
		"lib/fields.go:12:2: reachfix/lib.Counters.TestRead is read only by tests, or by nothing; delete it and every write to it",
		"lib/lib.go:43:6: reachfix/lib.TestOnly is reached only from tests, or from nothing; delete it or move it into a _test.go file",
		"lib/lib.go:45:6: reachfix/lib.inner is reached only from tests, or from nothing; delete it or move it into a _test.go file",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
