// Package rawbackend pins the I/O-accounting integrity invariant: every
// block transfer must route through pdm.System (which validates the
// one-block-per-disk discipline and counts the parallel I/O) or through
// pdm.InstrumentBackend. A raw Backend.ReadBlocks/WriteBlocks anywhere
// else — called directly, or taken as a method value or method expression
// and called later — moves records the model never counts, and from that
// moment the Theorem 3/21 bounds comparisons exported on /metrics silently
// lie.
//
// The backend conformance harness (repro/backendtest) is the one
// principled exception: its whole purpose is to exercise Backend
// implementations directly, below the accounting layer, so it sits on the
// -allowpkgs list.
package rawbackend

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/tools/analyzers/lintutil"
)

const doc = `forbid raw Backend transfer calls outside the accounting layer

ReadBlocks/WriteBlocks move records the cost model must count; only
pdm.System and pdm.InstrumentBackend may call them or take them as method
values. Everything else goes through the System so /metrics stays honest.`

var Analyzer = &analysis.Analyzer{
	Name: "rawbackend",
	Doc:  doc,
	Run:  run,
}

var (
	backendpkgs string
	allowpkgs   string
)

func init() {
	Analyzer.Flags.StringVar(&backendpkgs, "backendpkgs",
		"repro/internal/pdm,repro",
		"comma-separated anchored regexps of packages whose transfer methods are accounting-protected")
	Analyzer.Flags.StringVar(&allowpkgs, "allowpkgs",
		"repro/internal/pdm,repro/backendtest(/.*)?",
		"comma-separated anchored regexps of packages allowed to call transfer methods directly")
}

// xferMethods are the Backend methods that move records.
var xferMethods = map[string]bool{"ReadBlocks": true, "WriteBlocks": true}

func run(pass *analysis.Pass) (any, error) {
	if lintutil.PathMatches(pass.Pkg.Path(), allowpkgs) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Any selection of a transfer method counts, called or not: a
			// method value or method expression moves the same records once
			// its holder calls it.
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !xferMethods[sel.Sel.Name] {
				return true
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok {
				return true // package-qualified identifier, not a method
			}
			fn, ok := selection.Obj().(*types.Func)
			if !ok {
				return true
			}
			if !fromBackendPkg(fn) && !recvFromBackendPkg(selection.Recv()) {
				return true
			}
			lintutil.Report(pass, "rawbackend", sel,
				"raw backend transfer %s bypasses pdm.System's I/O accounting: route through System (or InstrumentBackend)", sel.Sel.Name)
			return true
		})
	}
	return nil, nil
}

// fromBackendPkg reports whether the method's declaring package is one of
// the accounting-protected packages.
func fromBackendPkg(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	return lintutil.PathMatches(fn.Pkg().Path(), backendpkgs)
}

// recvFromBackendPkg handles receivers whose *named type* comes from a
// protected package even when the method set entry resolves elsewhere
// (embedding, interface aliases like the root package's Backend = pdm.Backend).
func recvFromBackendPkg(recv types.Type) bool {
	for {
		switch t := recv.(type) {
		case *types.Pointer:
			recv = t.Elem()
		case *types.Named:
			if obj := t.Obj(); obj != nil && obj.Pkg() != nil &&
				lintutil.PathMatches(obj.Pkg().Path(), backendpkgs) {
				return true
			}
			recv = t.Underlying()
		case *types.Alias:
			recv = types.Unalias(t)
		default:
			return false
		}
		if _, ok := recv.(*types.Interface); ok {
			return false
		}
		if _, ok := recv.(*types.Struct); ok {
			return false
		}
	}
}
