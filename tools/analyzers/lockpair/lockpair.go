// Package lockpair pins the dataset locking discipline: AcquireRun (the
// exclusive run lock) and AcquireRead (the shared read lock) must be
// released on every path out of the function that took them. A leaked run
// lock deadlocks the next execution forever — the System deliberately has
// no timeout — and a mismatched pair (AcquireRun / ReleaseRead) corrupts
// the RWMutex state.
//
// The check accepts two shapes:
//
//  1. defer recv.ReleaseRun() (or a deferred closure that calls it) with
//     the same receiver expression, anywhere in the function — the
//     idiomatic form of the root package's Dataset and Engine methods;
//  2. an explicit matching Release call on every control-flow path from
//     the acquire to the function's exit, verified on the go/cfg graph.
//
// Receivers are compared by printed expression (ds.sys against ds.sys),
// which is exact for the field-selector chains the repo uses.
package lockpair

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"

	"repro/tools/analyzers/lintutil"
)

const doc = `require Acquire{Run,Read} to pair with Release on all paths

Every AcquireRun/AcquireRead must be followed by a defer of the matching
Release on the same receiver, or by a matching Release call on every
control-flow path to the function's exit.`

var Analyzer = &analysis.Analyzer{
	Name: "lockpair",
	Doc:  doc,
	Run:  run,
}

// pairs maps each acquire method to its required release.
var pairs = map[string]string{
	"AcquireRun":  "ReleaseRun",
	"AcquireRead": "ReleaseRead",
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

// lockCall is one Acquire* call found in a function body.
type lockCall struct {
	call    *ast.CallExpr
	acquire string // method name
	recv    string // printed receiver expression
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var acquires []lockCall
	// Top-level walk: don't descend into func literals; they are their own
	// scope for pairing (a deferred closure releasing the outer lock is
	// handled by the defer check below, not by re-walking here).
	inspectSkipFuncLits(fd.Body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if name, recv, ok := methodOn(call); ok && pairs[name] != "" {
				acquires = append(acquires, lockCall{call, name, recv})
			}
		}
	})
	if len(acquires) == 0 {
		return
	}
	for _, a := range acquires {
		release := pairs[a.acquire]
		if hasDeferredRelease(fd.Body, release, a.recv) {
			continue
		}
		if releasedOnAllPaths(fd, a, release) {
			continue
		}
		lintutil.Report(pass, "lockpair", a.call,
			"%s on %s has no %s on some path out of %s: defer the release or release on every return",
			a.acquire, a.recv, release, fd.Name.Name)
	}
}

// inspectSkipFuncLits walks n's tree, calling fn on every node, but does
// not descend into function literals.
func inspectSkipFuncLits(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// methodOn decomposes a call of the form recv.Name(...) into (Name,
// printed recv). Package-qualified calls are rejected by requiring the
// selector to have at least one non-package component — the printed form
// is still compared textually, so a false package match would simply
// never pair and be reported, which is safe.
func methodOn(call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	return sel.Sel.Name, exprString(sel.X), true
}

func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}

// hasDeferredRelease reports whether body contains a defer that calls
// release on recv — either directly (defer recv.ReleaseRun()) or inside a
// deferred function literal.
func hasDeferredRelease(body *ast.BlockStmt, release, recv string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if callsRelease(def.Call, release, recv) {
			found = true
			return false
		}
		if lit, ok := def.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && callsRelease(c, release, recv) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func callsRelease(call *ast.CallExpr, release, recv string) bool {
	name, r, ok := methodOn(call)
	return ok && name == release && r == recv
}

// releasedOnAllPaths builds the function's CFG and verifies that every
// path from the acquire reaches a matching release before the exit.
func releasedOnAllPaths(fd *ast.FuncDecl, a lockCall, release string) bool {
	g := cfg.New(fd.Body, func(*ast.CallExpr) bool { return true })
	// Locate the block and index holding the acquire call.
	var start *cfg.Block
	startIdx := -1
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if containsNode(n, a.call) {
				start, startIdx = b, i
				break
			}
		}
		if start != nil {
			break
		}
	}
	if start == nil {
		return false // can't prove it; report
	}
	// A block "releases" if one of its nodes after fromIdx calls release.
	releasesFrom := func(b *cfg.Block, fromIdx int) bool {
		for _, n := range b.Nodes[fromIdx:] {
			ok := false
			ast.Inspect(n, func(m ast.Node) bool {
				if c, isCall := m.(*ast.CallExpr); isCall && callsRelease(c, release, a.recv) {
					ok = true
				}
				return !ok
			})
			if ok {
				return true
			}
		}
		return false
	}
	// DFS: from the acquire onward, every path to a block with no
	// successors (function exit) must pass a release.
	if releasesFrom(start, startIdx+1) {
		return true
	}
	seen := map[*cfg.Block]bool{}
	var leak func(b *cfg.Block) bool
	leak = func(b *cfg.Block) bool {
		if seen[b] {
			return false
		}
		seen[b] = true
		if releasesFrom(b, 0) {
			return false
		}
		if len(b.Succs) == 0 {
			return b.Live // an unreachable empty exit block is not a leak
		}
		for _, s := range b.Succs {
			if leak(s) {
				return true
			}
		}
		return false
	}
	for _, s := range start.Succs {
		if leak(s) {
			return false
		}
	}
	return len(start.Succs) > 0 || !start.Live
}

// containsNode reports whether tree contains target.
func containsNode(tree ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(tree, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}
