package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotPathMarker is the annotation that roots the whole-program call graph:
// a function whose doc comment (or a comment on the line above) contains
// this marker is a per-event entry point of the simulation — the places
// the discrete-event engine dispatches into. Everything statically
// reachable from a marked function is "hot", and the hotalloc analyzer
// reports allocation sites only there.
const HotPathMarker = "//swex:hotpath"

// CallGraph is a class-hierarchy-analysis (CHA) style reachability
// structure over every function of the analyzed packages. It resolves
//
//   - static calls and concrete method calls to their single target;
//   - interface method calls to the same-named method of every analyzed
//     type that implements the interface;
//   - calls through func values (including method values and closures
//     passed around as values) conservatively, to every function or
//     closure whose value is taken anywhere in the analyzed packages and
//     whose signature matches the call site.
//
// Closures (func literals) are graph nodes of their own, attributed to
// their lexically enclosing declaration for naming; a closure's body is
// reachable when the closure is called where it is written, or when any
// reachable indirect call matches its signature (it was scheduled,
// stored, or passed — the engine's event queue is exactly this case).
type CallGraph struct {
	fset  *token.FileSet
	nodes map[graphKey]*graphNode
	// takenBySig groups value-taken functions for indirect-call
	// resolution; the slice order is the deterministic build order.
	taken []*graphNode
	roots []*graphNode
}

// graphKey identifies a node: a declared function by its types.Func
// object, a closure by its literal.
type graphKey struct {
	obj *types.Func
	lit *ast.FuncLit
}

// graphNode is one function (declaration or closure) in the graph.
type graphNode struct {
	key  graphKey
	pkg  *Package
	name string // canonical site name, e.g. "swex/internal/proto.(*HomeCtl).swRead"
	body *ast.BlockStmt
	// outgoing edges, resolved during the reachability walk
	static []graphKey
	iface  []ifaceCall
	indir  []*types.Signature
	taken  bool
	hot    bool
}

// ifaceCall records a dynamic dispatch through an interface method.
type ifaceCall struct {
	iface *types.Interface
	name  string
}

// BuildCallGraph constructs the whole-program graph over pkgs and marks
// the functions reachable from the //swex:hotpath roots. Packages without
// full type information still contribute their syntactic calls; an
// unresolvable callee simply grows no edge, which errs on the cold side
// and is why core packages are required to type-check cleanly (the
// self-scan test asserts they do).
func BuildCallGraph(cfg *Config, pkgs []*Package) *CallGraph {
	g := &CallGraph{fset: pkgFset(pkgs), nodes: make(map[graphKey]*graphNode)}
	for _, p := range pkgs {
		g.collectPackage(p)
	}
	g.resolveInterfaces(pkgs)
	g.propagate()
	return g
}

func pkgFset(pkgs []*Package) *token.FileSet {
	if len(pkgs) > 0 {
		return pkgs[0].Fset
	}
	return token.NewFileSet()
}

// collectPackage creates the nodes and raw edges for one package.
func (g *CallGraph) collectPackage(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := p.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			n := g.node(graphKey{obj: obj}, p, declName(p, fd, obj), fd.Body)
			if hasHotMarker(p, fd) {
				g.roots = append(g.roots, n)
			}
			g.scanBody(p, n, fd.Body)
		}
	}
}

// node returns (creating if needed) the graph node for key. A node first
// seen as a value-taken placeholder (no body: its declaration had not
// been scanned yet) is completed in place when the declaration arrives.
func (g *CallGraph) node(key graphKey, p *Package, name string, body *ast.BlockStmt) *graphNode {
	if n, ok := g.nodes[key]; ok {
		if n.body == nil && body != nil {
			n.pkg, n.name, n.body = p, name, body
		}
		return n
	}
	n := &graphNode{key: key, pkg: p, name: name, body: body}
	g.nodes[key] = n
	return n
}

// scanBody records the calls, value-taken functions, and nested closures
// of one function body. Nested closure bodies are scanned as nodes of
// their own; their statements are skipped here.
func (g *CallGraph) scanBody(p *Package, n *graphNode, body *ast.BlockStmt) {
	// Call positions: expressions appearing as the Fun of a CallExpr are
	// direct uses, not value escapes.
	callPos := make(map[ast.Expr]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			callPos[call.Fun] = true
		}
		return true
	})
	var walk func(x ast.Node) bool
	walk = func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			child := g.node(graphKey{lit: x}, p, n.name, x.Body)
			// A literal written in call position runs exactly where it
			// stands; anywhere else its value escapes and it becomes a
			// candidate for every matching indirect call.
			if callPos[x] {
				n.static = append(n.static, child.key)
			} else {
				child.taken = true
				g.taken = append(g.taken, child)
			}
			g.scanBody(p, child, x.Body)
			return false
		case *ast.CallExpr:
			g.recordCall(p, n, x)
			return true
		case *ast.Ident:
			if !callPos[ast.Expr(x)] {
				if fn, ok := p.Info.Uses[x].(*types.Func); ok {
					g.markTaken(fn)
				}
			}
		case *ast.SelectorExpr:
			if !callPos[ast.Expr(x)] {
				if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.MethodVal {
					if fn, ok := sel.Obj().(*types.Func); ok {
						g.markTaken(fn)
					}
				} else if fn, ok := p.Info.Uses[x.Sel].(*types.Func); ok {
					g.markTaken(fn)
				}
			}
			// Walk the receiver expression but not the selected name.
			ast.Inspect(x.X, walk)
			return false
		}
		return true
	}
	ast.Inspect(body, walk)
}

// markTaken flags a declared function whose value escapes. The node may
// not exist yet (the declaration lives in a package scanned later, or in
// a dependency outside the analysis set); a placeholder without a body
// still participates in signature matching soundly — it has no edges.
func (g *CallGraph) markTaken(fn *types.Func) {
	n := g.node(graphKey{obj: fn}, nil, funcName(fn), nil)
	if !n.taken {
		n.taken = true
		g.taken = append(g.taken, n)
	}
}

// recordCall classifies one call expression into an edge.
func (g *CallGraph) recordCall(p *Package, n *graphNode, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Type conversions and builtins grow no call edge.
	if tv, ok := p.Info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[fun].(type) {
		case *types.Func:
			n.static = append(n.static, graphKey{obj: obj})
			return
		case *types.Builtin, nil:
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				recv := sel.Recv()
				if it, ok := recv.Underlying().(*types.Interface); ok {
					n.iface = append(n.iface, ifaceCall{iface: it, name: fn.Name()})
					return
				}
				n.static = append(n.static, graphKey{obj: fn})
				return
			}
		}
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			// Package-qualified function call.
			n.static = append(n.static, graphKey{obj: fn})
			return
		}
	case *ast.FuncLit:
		// Edge added by the FuncLit case of scanBody via callPos.
		return
	}
	// Anything else is an indirect call through a func value.
	if tv, ok := p.Info.Types[fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			n.indir = append(n.indir, sig)
		}
	}
}

// resolveInterfaces expands every interface call into static edges to the
// same-named method of each analyzed type implementing the interface —
// the CHA step. Only named types declared in the analyzed packages are
// considered implementations; the simulator links against nothing else.
func (g *CallGraph) resolveInterfaces(pkgs []*Package) {
	var named []*types.Named
	for _, p := range pkgs {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		for _, nm := range scope.Names() {
			tn, ok := scope.Lookup(nm).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok {
				named = append(named, nt)
			}
		}
	}
	for _, n := range g.nodes {
		for _, ic := range n.iface {
			for _, nt := range named {
				var recv types.Type
				switch {
				case types.Implements(nt, ic.iface):
					recv = nt
				case types.Implements(types.NewPointer(nt), ic.iface):
					recv = types.NewPointer(nt)
				default:
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(recv, true, nt.Obj().Pkg(), ic.name)
				if fn, ok := obj.(*types.Func); ok {
					n.static = append(n.static, graphKey{obj: fn})
				}
			}
		}
	}
}

// propagate runs the worklist from the roots: static edges first, and
// indirect calls against the signature-matched taken set.
func (g *CallGraph) propagate() {
	var work []*graphNode
	push := func(n *graphNode) {
		if n != nil && !n.hot {
			n.hot = true
			work = append(work, n)
		}
	}
	for _, r := range g.roots {
		push(r)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, k := range n.static {
			push(g.nodes[k])
		}
		for _, sig := range n.indir {
			for _, cand := range g.taken {
				if matchesSignature(cand, sig) {
					push(cand)
				}
			}
		}
	}
}

// matchesSignature reports whether a taken function could be the target
// of an indirect call with the given signature. A method taken as a
// method value loses its receiver, so receivers are ignored.
func matchesSignature(n *graphNode, sig *types.Signature) bool {
	var cand *types.Signature
	switch {
	case n.key.obj != nil:
		cand, _ = n.key.obj.Type().(*types.Signature)
	case n.key.lit != nil && n.pkg != nil:
		if tv, ok := n.pkg.Info.Types[ast.Expr(n.key.lit)]; ok {
			cand, _ = tv.Type.(*types.Signature)
		}
	}
	if cand == nil {
		return false
	}
	return types.Identical(types.NewSignatureType(nil, nil, nil, cand.Params(), cand.Results(), cand.Variadic()),
		types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic()))
}

// HotFunctions returns the canonical names of the reachable declared
// functions in sorted order (closures report under their enclosing
// declaration and are omitted here). Tests assert against it.
func (g *CallGraph) HotFunctions() []string {
	seen := make(map[string]bool)
	for _, n := range g.nodes {
		if n.hot && n.key.obj != nil {
			seen[n.name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for nm := range seen {
		names = append(names, nm)
	}
	sort.Strings(names)
	return names
}

// Roots returns the canonical names of the annotated root functions in
// sorted order.
func (g *CallGraph) Roots() []string {
	names := make([]string, 0, len(g.roots))
	for _, r := range g.roots {
		names = append(names, r.name)
	}
	sort.Strings(names)
	return names
}

// hotBody is one function body to scan for allocation sites: a
// declaration or a closure, with its canonical (enclosing-declaration)
// site name.
type hotBody struct {
	pkg  *Package
	name string
	body *ast.BlockStmt
}

// bodies returns the analyzed function bodies in source order: only the
// hot-reachable ones when hotOnly is set, every one otherwise.
func (g *CallGraph) bodies(hotOnly bool) []hotBody {
	var out []hotBody
	for _, n := range g.nodes {
		if (n.hot || !hotOnly) && n.body != nil && n.pkg != nil {
			out = append(out, hotBody{pkg: n.pkg, name: n.name, body: n.body})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := g.fset.Position(out[i].body.Pos()), g.fset.Position(out[j].body.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return out
}

// isHotLit reports whether a closure node for lit exists and is hot.
func (g *CallGraph) isHotLit(lit *ast.FuncLit) bool {
	n, ok := g.nodes[graphKey{lit: lit}]
	return ok && n.hot
}

// hasHotMarker reports whether the declaration carries the
// //swex:hotpath annotation in its doc comment or on the line above.
func hasHotMarker(p *Package, fd *ast.FuncDecl) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), HotPathMarker) {
				return true
			}
		}
	}
	return false
}

// declName builds the canonical site name for a declaration:
// "pkgpath.Func" or "pkgpath.(*Recv).Method".
func declName(p *Package, fd *ast.FuncDecl, obj *types.Func) string {
	if fd.Recv == nil {
		return p.Path + "." + fd.Name.Name
	}
	recv := receiverBase(fd.Recv)
	if recv == "" {
		return p.Path + "." + fd.Name.Name
	}
	star := ""
	if len(fd.Recv.List) == 1 {
		if _, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
			star = "*"
		}
	}
	return p.Path + ".(" + star + recv + ")." + fd.Name.Name
}

// funcName renders a canonical name for a types.Func without syntax at
// hand (used for taken placeholders from other packages).
func funcName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
			star = "*"
		}
		if nt, ok := t.(*types.Named); ok {
			return pkgPath + ".(" + star + nt.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkgPath + "." + fn.Name()
}
