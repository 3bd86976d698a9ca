package cagc

import (
	"go/ast"
	"go/types"
	"testing"
)

// The simulator's reproducibility contract — identical summary JSON for
// identical configuration, byte for byte — forbids Go map iteration on
// any output path, because map range order is deliberately randomized
// by the runtime. The hot-path structures were flattened into
// internal/flathash tables partly so this invariant holds by
// construction; this lint keeps it that way. It reads the type-checked
// non-test files of the simulation packages (lintload_test.go) and
// fails on any range statement whose operand is a map.
//
// Test files are exempt (they may range over maps for assertions where
// order does not matter), as is any range feeding a commutative fold —
// but rather than encode "commutative" in a linter, the packages simply
// do not range over maps at all: there are none left to range over.

var mapRangeLintedPackages = []string{
	"internal/dedup",
	"internal/event",
	"internal/flash",
	"internal/fleet",
	"internal/ftl",
	"internal/obs",
	"internal/sim",
}

func TestNoMapRangeInSimulationPackages(t *testing.T) {
	m := loadRepoForLint(t)
	for _, dir := range mapRangeLintedPackages {
		p := m.Package("cagc/" + dir)
		if p == nil {
			t.Fatalf("%s: not loaded", dir)
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := p.Info.Types[rs.X]
				if !ok {
					t.Errorf("%s: range operand with no type info", m.Fset.Position(rs.Pos()))
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					t.Errorf("%s: range over map %s — map iteration order is randomized and breaks bit-identical output; use a flathash table, a slice, or an explicitly ordered walk",
						m.Fset.Position(rs.Pos()), tv.Type)
				}
				return true
			})
		}
	}
}
