package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Determinism enforces the simulation core's reproducibility contract: the
// cycle-by-cycle results in the paper (and the coherence checker's
// reproducible panic point) hold only if no code path depends on
// wall-clock time, unseeded randomness, Go map iteration order, or
// scheduler-dependent goroutine interleavings.
//
// Within the configured core packages it forbids:
//
//   - importing time or math/rand (use sim.Cycle and the explicitly
//     seeded sim.Rand instead);
//   - go statements, select statements, channel sends, receives, closes,
//     and channel construction;
//   - ranging over a map, unless the loop only collects the keys into a
//     slice that is sorted by the immediately following statement (the
//     canonical deterministic-iteration idiom, as in dir.Directory.ForEach).
type Determinism struct{}

// Name implements Analyzer.
func (Determinism) Name() string { return "determinism" }

// forbiddenImports maps import paths to the reason they break determinism.
var forbiddenImports = map[string]string{
	"time":         "wall-clock time is nondeterministic across runs; simulated time is sim.Cycle",
	"math/rand":    "global random state is unseeded and shared; use sim.Rand with an explicit seed",
	"math/rand/v2": "global random state is unseeded and shared; use sim.Rand with an explicit seed",
}

// Check implements Analyzer.
func (Determinism) Check(cfg *Config, pkg *Package) []Diagnostic {
	if !cfg.IsCore(pkg.Path) {
		return nil
	}
	var diags []Diagnostic
	diag := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:      pkg.Fset.Position(n.Pos()),
			Analyzer: "determinism",
			Message:  fmt.Sprintf(format, args...),
		})
	}

	sanctioned := sortedCollectRanges(pkg)

	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := importPath(imp)
			if reason, bad := forbiddenImports[path]; bad {
				diag(imp, "import of %s in the simulation core: %s", path, reason)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				diag(n, "goroutine launch in the simulation core: scheduler interleavings are nondeterministic")
			case *ast.SelectStmt:
				diag(n, "select in the simulation core: ready-case choice is nondeterministic")
			case *ast.SendStmt:
				diag(n, "channel send in the simulation core")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					diag(n, "channel receive in the simulation core")
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && isBuiltin(pkg, id) {
					switch {
					case id.Name == "close" && len(n.Args) == 1:
						diag(n, "channel close in the simulation core")
					case id.Name == "make" && len(n.Args) >= 1:
						if _, isChan := n.Args[0].(*ast.ChanType); isChan {
							diag(n, "channel construction in the simulation core")
						}
					}
				}
			case *ast.RangeStmt:
				t := exprType(pkg, n.X)
				if t == nil {
					return true
				}
				switch t.Underlying().(type) {
				case *types.Map:
					if !sanctioned[n] {
						diag(n, "range over map %s: iteration order is nondeterministic (collect the keys and sort them, as dir.Directory.ForEach does)", types.ExprString(n.X))
					}
				case *types.Chan:
					diag(n, "range over channel in the simulation core")
				}
			}
			return true
		})
	}
	return diags
}

// sortedCollectRanges finds map-range statements that follow the
// deterministic-iteration idiom: the loop body only appends to one slice,
// and the statement immediately after the loop sorts that slice.
func sortedCollectRanges(pkg *Package) map[*ast.RangeStmt]bool {
	out := make(map[*ast.RangeStmt]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, st := range list {
				rs, ok := st.(*ast.RangeStmt)
				if !ok || i+1 >= len(list) {
					continue
				}
				if slice := collectTarget(rs.Body); slice != "" && isSortOf(list[i+1], slice) {
					out[rs] = true
				}
			}
			return true
		})
	}
	return out
}

// collectTarget returns the name of the slice a loop body appends to, if
// every statement in the body is `s = append(s, ...)` for the same s.
func collectTarget(body *ast.BlockStmt) string {
	if body == nil || len(body.List) == 0 {
		return ""
	}
	target := ""
	for _, st := range body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return ""
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return ""
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return ""
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return ""
		}
		first, ok := call.Args[0].(*ast.Ident)
		if !ok || first.Name != lhs.Name {
			return ""
		}
		if target == "" {
			target = lhs.Name
		} else if target != lhs.Name {
			return ""
		}
	}
	return target
}

// sortFuncs are the sort entry points the idiom recognizer accepts.
var sortFuncs = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true, "sort.Ints": true, "sort.Strings": true,
	"sort.Float64s": true, "slices.Sort": true, "slices.SortFunc": true,
	"slices.SortStableFunc": true,
}

// isSortOf reports whether stmt sorts the named slice.
func isSortOf(stmt ast.Stmt, slice string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) < 1 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok || !sortFuncs[recv.Name+"."+sel.Sel.Name] {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && arg.Name == slice
}

// ------------------------------------------------------------- shared bits

func importPath(imp *ast.ImportSpec) string {
	p := imp.Path.Value
	if len(p) >= 2 {
		p = p[1 : len(p)-1]
	}
	return p
}

func exprType(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isBuiltin reports whether the identifier resolves to a Go builtin (or
// type information is missing, in which case the name is trusted).
func isBuiltin(pkg *Package, id *ast.Ident) bool {
	obj, ok := pkg.Info.Uses[id]
	if !ok {
		return true
	}
	_, builtin := obj.(*types.Builtin)
	return builtin
}
