// Package detrand pins the repo's determinism contract (DESIGN.md): every
// random choice the library makes is drawn from a *rand.Rand the caller
// seeds, and the deterministic packages — the engines, the GF(2) planning
// stack, and the chaos wrappers whose fault decisions must be pure hashes
// of (seed, kind, disk, block, visit) — never read the wall clock. A
// single time.Now or global math/rand call in those paths silently breaks
// chaos-schedule replay and the byte-identical I/O accounting the paper's
// bounds comparisons depend on.
//
// Three rules, in decreasing scope:
//
//  1. Global math/rand state (rand.Intn, rand.Shuffle, rand.Seed, ...) is
//     forbidden everywhere — library and commands alike. Use
//     bmmc.NewRand(seed) or a locally owned rand.New(rand.NewSource(s)).
//  2. Seeding a source from the clock (rand.NewSource(time.Now()...) and
//     friends) is forbidden in commands and in deterministic packages:
//     examples and CLIs must route seeds through their -seed flag.
//  3. time.Now (and time.Since/time.Until, which call it) is forbidden in
//     the deterministic packages (-detpkgs), except in files on the
//     measurement allowlist (-allowfiles): latency instrumentation sites
//     observe a run without influencing it.
package detrand

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/tools/analyzers/lintutil"
)

const doc = `forbid wall-clock and global-rand nondeterminism in deterministic packages

Deterministic packages (engines, planning, chaos wrappers) must derive
every random choice from a caller-seeded source and must never read the
clock; global math/rand state is forbidden repo-wide.`

var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  doc,
	Run:  run,
}

var (
	detpkgs    string
	allowfiles string
)

func init() {
	Analyzer.Flags.StringVar(&detpkgs, "detpkgs",
		"repro/internal/engine,repro/internal/perm,repro/internal/factor,repro/internal/gf2,repro/internal/pdm,repro,repro/internal/detect,repro/internal/bounds,repro/backendtest/chaos",
		"comma-separated anchored regexps of deterministic package paths")
	Analyzer.Flags.StringVar(&allowfiles, "allowfiles",
		"instrument.go",
		"comma-separated file basenames where time.Now is measurement, not logic")
}

// globalRandFuncs are the math/rand package-level functions that touch the
// shared global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// clockFuncs are the time package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) (any, error) {
	deterministic := lintutil.PathMatches(pass.Pkg.Path(), detpkgs)
	seedScoped := deterministic || lintutil.IsMainPackage(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := calleePkgFunc(pass, call)
			switch {
			case pkg == "math/rand" && globalRandFuncs[name]:
				lintutil.Report(pass, "detrand", call,
					"global math/rand state (rand.%s): draw from a caller-seeded *rand.Rand (bmmc.NewRand) instead", name)
			case pkg == "math/rand" && (name == "NewSource" || name == "New") && seedScoped && readsClock(pass, call):
				lintutil.Report(pass, "detrand", call,
					"rand source seeded from the clock: route the seed through -seed / bmmc.NewRand so runs replay")
			case pkg == "time" && clockFuncs[name] && deterministic &&
				!lintutil.InFiles(pass, call.Pos(), allowfiles):
				lintutil.Report(pass, "detrand", call,
					"time.%s in deterministic package %s: fault and planning decisions must be pure functions of the seed", name, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil, nil
}

// calleePkgFunc resolves a call's callee to (package path, function name)
// when it is a direct package-level function call like rand.Intn(...).
func calleePkgFunc(pass *analysis.Pass, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// readsClock reports whether any call to time.Now/Since/Until appears in
// the argument tree of call (e.g. rand.NewSource(time.Now().UnixNano())).
func readsClock(pass *analysis.Pass, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, name := calleePkgFunc(pass, c); pkg == "time" && clockFuncs[name] {
				found = true
			}
			return !found
		})
	}
	return found
}
