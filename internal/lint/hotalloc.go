package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// HotAlloc is the whole-program allocation analyzer: it builds the
// //swex:hotpath call graph over every analyzed package and reports each
// allocation site inside a hot-reachable function of the packages listed
// in Config.HotReportPaths. Detected site kinds:
//
//   - "new":     the new builtin
//   - "make":    the make builtin (slices, maps)
//   - "chan":    channel construction, sends, and receives
//   - "lit":     slice and map composite literals, and &T{...}
//   - "append":  append (growth allocates; a hot loop must preallocate)
//   - "box":     a non-pointer concrete value converted to an interface
//     (the hidden allocation behind tag any parameters)
//   - "closure": a func literal capturing variables, or a bound method
//     value (both materialize a closure object)
//   - "str":     string concatenation
//   - "fmt":     calls into package fmt (formatting allocates freely)
//
// Sites are keyed by package, enclosing declared function, and kind —
// never by line — so unrelated edits do not churn the committed baseline
// (lint-baseline.json). With Config.Baseline set, only sites exceeding
// the baselined count for their key are reported: the ratchet that keeps
// future changes from silently re-growing hot-path garbage.
type HotAlloc struct{}

// Name implements Analyzer.
func (HotAlloc) Name() string { return "hotalloc" }

// Check implements Analyzer. HotAlloc is whole-program; the per-package
// entry point reports nothing (Run drives CheckModule instead).
func (HotAlloc) Check(cfg *Config, pkg *Package) []Diagnostic { return nil }

// CheckModule implements ModuleAnalyzer: report hot-path allocation
// sites, filtered through the baseline ratchet when one is configured,
// and the baseline entries that have gone stale.
func (HotAlloc) CheckModule(cfg *Config, pkgs []*Package) []Diagnostic {
	g := BuildCallGraph(cfg, pkgs)
	sites := allocSites(cfg, g, g.bodies(true))
	var diags []Diagnostic
	if cfg.Baseline == nil {
		for _, s := range sites {
			diags = append(diags, s.diagnostic(0, 0))
		}
		return diags
	}
	byKey := make(map[string][]AllocSite)
	for _, s := range sites {
		byKey[s.Key] = append(byKey[s.Key], s)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ss := byKey[k]
		allowed := cfg.Baseline.Sites[k]
		if len(ss) <= allowed {
			continue
		}
		// Every site of an over-budget key is reported: the analyzer
		// cannot know which of them is the new one.
		for _, s := range ss {
			diags = append(diags, s.diagnostic(allowed, len(ss)))
		}
	}
	return append(diags, staleEntries(cfg, g, pkgs)...)
}

// staleEntries reports baseline keys that allow more sites than their
// function's source still contains, so deleted allocation sites cannot
// linger in the ratchet. Sites are counted hot or not: whether a
// function is hot depends on callers in other packages, which a run over
// some packages cannot see. (A site that survives but went cold is left
// to TestBaselineRatchet, which scans the whole module.) Only keys of
// analyzed packages are checked, so a run over one package says nothing
// about the others' entries.
func staleEntries(cfg *Config, g *CallGraph, pkgs []*Package) []Diagnostic {
	present := make(map[string]int)
	for _, s := range allocSites(cfg, g, g.bodies(false)) {
		present[s.Key]++
	}
	keys := make([]string, 0, len(cfg.Baseline.Sites))
	for k := range cfg.Baseline.Sites {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var diags []Diagnostic
	for _, k := range keys {
		allowed, n := cfg.Baseline.Sites[k], present[k]
		if n >= allowed || !slices.ContainsFunc(pkgs, func(p *Package) bool {
			return strings.HasPrefix(k, p.Path+".")
		}) {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      cfg.Baseline.position(k),
			Analyzer: "hotalloc",
			Message: fmt.Sprintf("stale baseline entry: key %s: baseline %d, source has %d (run swexlint -write-baseline)",
				k, allowed, n),
		})
	}
	return diags
}

// AllocSite is one allocation inside a hot-reachable function.
type AllocSite struct {
	// Pos is the source position of the allocating expression.
	Pos token.Position
	// Key is the ratchet key: "<pkg>.<func>/<kind>".
	Key string
	// Kind is the site category ("make", "box", "closure", ...).
	Kind string
	// Fn is the canonical enclosing declared function.
	Fn string
	// Detail describes the specific allocation for the diagnostic.
	Detail string
}

// diagnostic renders the site as a rule violation.
func (s AllocSite) diagnostic(allowed, found int) Diagnostic {
	msg := fmt.Sprintf("hot-path allocation: %s [key %s]", s.Detail, s.Key)
	if found > 0 {
		msg = fmt.Sprintf("hot-path allocation: %s [key %s: baseline %d, found %d]",
			s.Detail, s.Key, allowed, found)
	}
	return Diagnostic{Pos: s.Pos, Analyzer: "hotalloc", Message: msg}
}

// HotAllocSites builds the call graph and returns every allocation site
// in hot-reachable code of the HotReportPaths packages, in position
// order. It ignores the baseline; ComputeBaseline and the ratchet both
// build on it.
func HotAllocSites(cfg *Config, pkgs []*Package) []AllocSite {
	g := BuildCallGraph(cfg, pkgs)
	return allocSites(cfg, g, g.bodies(true))
}

// allocSites scans the given bodies of the HotReportPaths packages and
// returns their allocation sites in position order.
func allocSites(cfg *Config, g *CallGraph, bodies []hotBody) []AllocSite {
	var sites []AllocSite
	for _, hb := range bodies {
		if hb.pkg == nil || !matchAny(cfg.HotReportPaths, hb.pkg.Path) {
			continue
		}
		sites = append(sites, scanAllocs(g, hb)...)
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i].Pos, sites[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return sites
}

// scanAllocs finds the allocation sites of one hot function body. Nested
// closures are separate graph nodes with their own hotBody entries, so
// their statements are skipped here — except the *creation* of a closure,
// which is an allocation at the point the literal appears.
func scanAllocs(g *CallGraph, hb hotBody) []AllocSite {
	p := hb.pkg
	var sites []AllocSite
	add := func(n ast.Node, kind, detail string) {
		sites = append(sites, AllocSite{
			Pos:    p.Fset.Position(n.Pos()),
			Key:    hb.name + "/" + kind,
			Kind:   kind,
			Fn:     hb.name,
			Detail: detail,
		})
	}
	callPos := make(map[ast.Expr]bool)
	ast.Inspect(hb.body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			callPos[call.Fun] = true
		}
		return true
	})
	var walk func(x ast.Node) bool
	walk = func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if caps := captures(p, x); len(caps) > 0 {
				add(x, "closure", "func literal capturing "+strings.Join(caps, ", "))
			}
			return false // the body is its own hotBody
		case *ast.CallExpr:
			scanCall(p, x, add)
		case *ast.SelectorExpr:
			if !callPos[ast.Expr(x)] {
				if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.MethodVal {
					add(x, "closure", "bound method value "+types.ExprString(x))
				}
			}
			ast.Inspect(x.X, walk)
			return false
		case *ast.UnaryExpr:
			switch x.Op {
			case token.AND:
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					add(x, "lit", "heap-escaping composite literal &"+typeLabel(p, lit))
					// The literal's elements may still box or allocate.
					for _, e := range lit.Elts {
						ast.Inspect(e, walk)
					}
					scanBoxedElems(p, lit, add)
					return false
				}
			case token.ARROW:
				add(x, "chan", "channel receive")
			}
		case *ast.SendStmt:
			add(x, "chan", "channel send")
		case *ast.CompositeLit:
			if t := exprType(p, x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					add(x, "lit", "slice literal "+typeLabel(p, x))
				case *types.Map:
					add(x, "lit", "map literal "+typeLabel(p, x))
				}
			}
			scanBoxedElems(p, x, add)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringExpr(p, x) && !isConstExpr(p, x) {
				add(x, "str", "string concatenation")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringExpr(p, x.Lhs[0]) {
				add(x, "str", "string concatenation (+=)")
			}
			scanAssignBoxing(p, x, add)
		case *ast.ReturnStmt:
			// Handled via scanReturnBoxing at the body level below.
		}
		return true
	}
	ast.Inspect(hb.body, walk)
	scanReturnBoxing(g, hb, add)
	return sites
}

// scanCall classifies one call: builtins that allocate, fmt formatting,
// explicit interface conversions, and implicit boxing at interface-typed
// parameters.
func scanCall(p *Package, call *ast.CallExpr, add func(ast.Node, string, string)) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		// Conversion T(x): boxing when T is an interface and x concrete.
		if isInterfaceType(tv.Type) && len(call.Args) == 1 && boxes(p, call.Args[0]) {
			add(call, "box", "interface conversion "+types.ExprString(fun)+"(...) boxes "+argTypeLabel(p, call.Args[0]))
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok && isBuiltin(p, id) {
		switch id.Name {
		case "new":
			add(call, "new", "new("+types.ExprString(call.Args[0])+")")
		case "make":
			if len(call.Args) >= 1 {
				if t := exprType(p, call.Args[0]); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						add(call, "chan", "channel construction")
						return
					}
				}
				add(call, "make", "make("+types.ExprString(call.Args[0])+", ...)")
			}
		case "append":
			add(call, "append", "append (growth reallocates)")
		}
		return
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if pkgName, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[pkgName].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				add(call, "fmt", "fmt."+sel.Sel.Name+" call")
				return // formatting subsumes the boxing of its arguments
			}
		}
	}
	// Implicit boxing at interface-typed parameters of the callee.
	sig := calleeSignature(p, fun)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // passing a slice through; no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && isInterfaceType(pt) && boxes(p, arg) {
			add(arg, "box", "argument boxes "+argTypeLabel(p, arg)+" into "+pt.String())
		}
	}
}

// scanAssignBoxing reports concrete values assigned into interface-typed
// locations.
func scanAssignBoxing(p *Package, as *ast.AssignStmt, add func(ast.Node, string, string)) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := exprType(p, as.Lhs[i])
		if lt != nil && isInterfaceType(lt) && boxes(p, as.Rhs[i]) {
			add(as.Rhs[i], "box", "assignment boxes "+argTypeLabel(p, as.Rhs[i])+" into "+lt.String())
		}
	}
}

// scanBoxedElems reports composite-literal elements boxed into
// interface-typed fields, elements, or map values.
func scanBoxedElems(p *Package, lit *ast.CompositeLit, add func(ast.Node, string, string)) {
	t := exprType(p, lit)
	if t == nil {
		return
	}
	elemTypeFor := func(e ast.Expr, idx int) (types.Type, ast.Expr) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					for f := 0; f < u.NumFields(); f++ {
						if u.Field(f).Name() == id.Name {
							return u.Field(f).Type(), kv.Value
						}
					}
				}
				return nil, kv.Value
			}
			if idx < u.NumFields() {
				return u.Field(idx).Type(), e
			}
		case *types.Slice:
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				return u.Elem(), kv.Value
			}
			return u.Elem(), e
		case *types.Array:
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				return u.Elem(), kv.Value
			}
			return u.Elem(), e
		case *types.Map:
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				return u.Elem(), kv.Value
			}
		}
		return nil, e
	}
	for i, e := range lit.Elts {
		ft, val := elemTypeFor(e, i)
		if ft != nil && isInterfaceType(ft) && boxes(p, val) {
			add(val, "box", "composite element boxes "+argTypeLabel(p, val)+" into "+ft.String())
		}
	}
}

// scanReturnBoxing reports concrete values returned through interface
// results. It needs the enclosing function's signature, so it runs per
// hot body rather than inside the generic walk.
func scanReturnBoxing(g *CallGraph, hb hotBody, add func(ast.Node, string, string)) {
	p := hb.pkg
	var results *types.Tuple
	for key, n := range g.nodes {
		if n.body != hb.body {
			continue
		}
		switch {
		case key.obj != nil:
			results = key.obj.Type().(*types.Signature).Results()
		case key.lit != nil:
			if tv, ok := p.Info.Types[ast.Expr(key.lit)]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok {
					results = sig.Results()
				}
			}
		}
		break
	}
	if results == nil || results.Len() == 0 {
		return
	}
	ast.Inspect(hb.body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := x.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != results.Len() {
			return true
		}
		for i, r := range ret.Results {
			rt := results.At(i).Type()
			if isInterfaceType(rt) && boxes(p, r) {
				add(r, "box", "return boxes "+argTypeLabel(p, r)+" into "+rt.String())
			}
		}
		return true
	})
}

// boxes reports whether converting the expression's value to an
// interface allocates: the static type is concrete (not already an
// interface) and not pointer-shaped (pointers, channels, maps, and funcs
// fit the interface word directly). Untyped nil never boxes.
func boxes(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	switch t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		if b.Kind() == types.UntypedNil || b.Kind() == types.Invalid {
			return false
		}
	case nil:
		return false
	}
	return true
}

// calleeSignature resolves the static signature of a call target, when
// one is known.
func calleeSignature(p *Package, fun ast.Expr) *types.Signature {
	if tv, ok := p.Info.Types[fun]; ok && tv.Type != nil {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// captures lists the variables a func literal closes over, in first-use
// order: the names that make the literal a heap-allocated closure rather
// than a static function value.
func captures(p *Package, lit *ast.FuncLit) []string {
	var names []string
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		// Captured variables are declared outside the literal but inside
		// some enclosing function (package-level variables are not
		// captured; they are direct references).
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level
		}
		if v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return true
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}

// isInterfaceType reports whether t's underlying type is an interface.
func isInterfaceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isStringExpr reports whether the expression has string type.
func isStringExpr(p *Package, e ast.Expr) bool {
	t := exprType(p, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether the expression folds to a constant (the
// compiler concatenates constant strings at compile time).
func isConstExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// typeLabel renders a composite literal's type for a diagnostic.
func typeLabel(p *Package, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return types.ExprString(lit.Type)
	}
	if t := exprType(p, lit); t != nil {
		return t.String()
	}
	return "composite"
}

// argTypeLabel renders an expression's static type for a diagnostic.
func argTypeLabel(p *Package, e ast.Expr) string {
	if t := exprType(p, e); t != nil {
		return t.String()
	}
	return "value"
}
