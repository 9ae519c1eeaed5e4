package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"

	"busarb/internal/analysis/cfg"
)

// AllocFree statically proves the zero-alloc hot paths: functions in
// the declared hot-path scope must contain no allocating construct.
// The AllocsPerRun benchmarks pin the same property dynamically, but
// only along the inputs they happen to drive; this analyzer makes it a
// property of the whole tree.
//
// The scope is the code the paper's performance claims rest on:
//
//   - internal/bitarb: the whole package (the bit-parallel kernels);
//   - internal/arbd/codec: the whole package (the wire codec's
//     Append/Decode run per frame);
//   - internal/busctl: the whole package, the bus controller whose
//     methods are the per-request and per-grant path of bussim, snoop,
//     membus and every arbd shard;
//   - internal/topo: the steady-state tree operations — building the
//     tree is setup;
//   - internal/sim: the event engine's per-event path — scheduling
//     (At, After), popping (Next), the heap's sifts (push, pop) and
//     their order (earlier), and the solo slots (arm, take), which
//     every simulated event runs;
//   - internal/bussim: the simulator's per-event path — each think
//     time, arrival, arbitration, transaction start and end and
//     completion record; Run's set-up and closeBatch, once per batch,
//     stay out;
//   - internal/core: Resolve, the repass loop of untimed callers, and
//     every protocol's OnRequest, OnClassRequest, OnServiceStart and
//     Arbitrate (and AAP2's release), the per-request and per-grant
//     path of every simulator and arbd shard.
//
// Flagged constructs: make, new, slice/map composite literals,
// &-literals, appends that are not provably reuse-backed, function
// literals (closure allocation), interface boxing at call sites,
// non-constant string concatenation, and conversions that copy to a
// slice or from one to a string. Arguments to panic are exempt — a
// panicking hot path is already lost, and the diagnostic text is worth
// the allocation.
//
// An append is reuse-backed when the slice it grows provably derives
// from a caller-owned parameter (codec.Append's dst) or from a reslice
// of a struct field (`x := t.buf[:0]`, or `t.hops = t.hops[:0]`
// reaching the append) — the amortized-growth idiom whose steady state
// allocates nothing. The proof is a forward must-analysis on the cfg
// graph: assignments propagate or kill the reuse-backed fact, and the
// fact must reach the append along every path.
//
// Deliberate allocations are annotated:
//
//	//arblint:alloc <why>
//
// on a function's doc comment exempts the whole function (a declared
// setup-phase function inside the scope, like a lazily-built oracle);
// on the allocating line (or the line above) it excuses that one
// construct. Like //arblint:allow, an annotation that excuses nothing
// is itself reported, so stale exemptions cannot accumulate.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "hot-path functions (bitarb, codec, the bus controller's per-event path, topo steady state, " +
		"sim and bussim event paths, the core protocols' request/grant path) must not allocate; //arblint:alloc annotates deliberate " +
		"setup-phase allocations",
	AppliesTo: allocFreeApplies,
	Run:       runAllocFree,
}

// allocFreeScope maps package-path suffixes to the function and method
// names in scope; a nil list means the whole package. A name scopes
// every function or method of that name. Packages not listed (the
// analysistest testdata trees) check every function.
var allocFreeScope = []struct {
	suffix string
	funcs  []string
}{
	{"internal/bitarb", nil},
	{"internal/arbd/codec", nil},
	{"internal/busctl", nil},
	{"internal/topo", []string{
		"OnRequest", "OnServiceStart", "Arbitrate", "LastHops", "Reset", "checkAgent",
	}},
	{"internal/sim", []string{"At", "After", "Next", "push", "pop", "earlier", "arm", "take"}},
	{"internal/bussim", []string{
		"scheduleNextRequest", "requestArrives", "follow", "carry", "resolveArbitration",
		"startService", "completeService", "recordCompletion",
	}},
	{"internal/core", []string{
		"Resolve", "OnRequest", "OnClassRequest", "OnServiceStart", "Arbitrate", "release",
	}},
}

func allocFreeApplies(pkgPath string) bool {
	for _, s := range allocFreeScope {
		if pathHasSuffix(pkgPath, s.suffix) {
			return true
		}
	}
	return false
}

// allocScopeFuncs returns the in-scope function names for a package
// path, or nil meaning every function (whole-package scope and the
// testdata trees).
func allocScopeFuncs(pkgPath string) map[string]bool {
	for _, s := range allocFreeScope {
		if pathHasSuffix(pkgPath, s.suffix) && s.funcs != nil {
			set := make(map[string]bool, len(s.funcs))
			for _, n := range s.funcs {
				set[n] = true
			}
			return set
		}
	}
	return nil
}

var allocAnnRE = regexp.MustCompile(`^//\s*arblint:alloc\b`)

type allocAnn struct {
	pos  token.Position
	used bool
}

func runAllocFree(pass *Pass) error {
	c := &allocChecker{pass: pass, byLine: make(map[string]map[int][]*allocAnn)}
	for _, f := range pass.Files {
		for _, group := range f.Comments {
			for _, cm := range group.List {
				if !allocAnnRE.MatchString(cm.Text) {
					continue
				}
				pos := pass.Fset.Position(cm.Pos())
				ann := &allocAnn{pos: pos}
				c.anns = append(c.anns, ann)
				lines := c.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*allocAnn)
					c.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], ann)
			}
		}
	}

	scope := allocScopeFuncs(pass.Pkg.Path())
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if scope != nil && !scope[fd.Name.Name] {
				continue
			}
			if c.consumeDocAnn(fd) {
				continue // the whole function is declared setup-phase
			}
			c.checkFunc(fd)
		}
	}
	for _, ann := range c.anns {
		if !ann.used {
			pass.diags = append(pass.diags, Diagnostic{
				Pos:      ann.pos,
				Message:  "unused //arblint:alloc comment: no allocating construct on this or the next line",
				Analyzer: pass.Analyzer.Name,
				Kind:     KindUnusedAlloc,
			})
		}
	}
	return nil
}

type allocChecker struct {
	pass   *Pass
	anns   []*allocAnn
	byLine map[string]map[int][]*allocAnn
}

// consumeDocAnn reports whether fd's doc comment carries an
// //arblint:alloc annotation, consuming it.
func (c *allocChecker) consumeDocAnn(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	found := false
	for _, cm := range fd.Doc.List {
		if !allocAnnRE.MatchString(cm.Text) {
			continue
		}
		p := c.pass.Fset.Position(cm.Pos())
		for _, a := range c.byLine[p.Filename][p.Line] {
			if a.pos == p {
				a.used = true
				found = true
			}
		}
	}
	return found
}

// flag reports an allocating construct unless an //arblint:alloc
// annotation on the construct's line or the line above excuses it
// (budget: one construct per annotation, mirroring //arblint:allow).
func (c *allocChecker) flag(pos token.Pos, format string, args ...interface{}) {
	p := c.pass.Fset.Position(pos)
	lines := c.byLine[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, ann := range lines[line] {
			if !ann.used {
				ann.used = true
				return
			}
		}
	}
	c.pass.Reportf(pos, format, args...)
}

// checkFunc runs the reuse-backed must-analysis over fd's body and
// reports every allocating construct the facts cannot excuse.
func (c *allocChecker) checkFunc(fd *ast.FuncDecl) {
	g := cfg.Build(fd.Body)
	flow := cfg.Flow{
		Entry:    c.entryFacts(fd),
		Transfer: c.transfer,
	}
	in := g.MustFacts(flow)
	for _, blk := range g.Blocks {
		facts := in[blk.Index].Clone()
		for _, n := range blk.Nodes {
			c.checkNode(n, facts)
			c.transfer(n, facts)
		}
	}
}

// entryFacts seeds the reuse-backed set with every slice-typed
// parameter: the caller owns that storage, appends to it are the
// caller's capacity policy (codec.Append's dst contract).
func (c *allocChecker) entryFacts(fd *ast.FuncDecl) []string {
	var facts []string
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := c.pass.Info.Defs[name]
				if obj == nil {
					continue
				}
				if _, ok := obj.Type().Underlying().(*types.Slice); ok {
					facts = append(facts, objFact(obj))
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return facts
}

func objFact(obj types.Object) string {
	return "o" + strconv.Itoa(int(obj.Pos()))
}

func selFact(e ast.Expr) string {
	return "s:" + types.ExprString(e)
}

// transfer tracks the reuse-backed facts through assignments and
// declarations: assigning a reuse-backed value propagates the fact to
// the destination, anything else kills it.
func (c *allocChecker) transfer(n ast.Node, facts cfg.Set) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				c.assign(lhs, s.Rhs[i], facts)
			}
		} else {
			for _, lhs := range s.Lhs {
				c.assign(lhs, nil, facts)
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var rhs ast.Expr
				if i < len(vs.Values) {
					rhs = vs.Values[i]
				}
				c.assign(name, rhs, facts)
			}
		}
	}
}

func (c *allocChecker) assign(lhs, rhs ast.Expr, facts cfg.Set) {
	var key string
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := c.pass.Info.Defs[l]
		if obj == nil {
			obj = c.pass.Info.Uses[l]
		}
		if obj == nil {
			return
		}
		key = objFact(obj)
	case *ast.SelectorExpr:
		key = selFact(l)
	default:
		return
	}
	if rhs != nil && c.reuseBacked(rhs, facts) {
		facts.Add(key)
	} else {
		facts.Remove(key)
	}
}

// reuseBacked reports whether e provably evaluates to a slice whose
// storage the function reuses: a parameter, a reslice of a struct
// field, a value already proven reuse-backed, or an append-shaped call
// (append itself, or a helper like binary.BigEndian.AppendUint32 that
// takes the slice first and returns it grown).
func (c *allocChecker) reuseBacked(e ast.Expr, facts cfg.Set) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.pass.Info.Uses[e]
		return obj != nil && facts.Has(objFact(obj))
	case *ast.SelectorExpr:
		return facts.Has(selFact(e))
	case *ast.SliceExpr:
		if _, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
			return true // t.buf[:0]: the field's capacity is the reuse
		}
		return c.reuseBacked(e.X, facts)
	case *ast.CallExpr:
		if len(e.Args) == 0 {
			return false
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := c.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				return id.Name == "append" && c.reuseBacked(e.Args[0], facts)
			}
		}
		// Append-shaped helper: slice in, same storage (grown) out.
		if t := c.pass.Info.Types[e].Type; t != nil {
			if _, ok := t.Underlying().(*types.Slice); ok {
				return c.reuseBacked(e.Args[0], facts)
			}
		}
	}
	return false
}

// checkNode reports the allocating constructs syntactically inside one
// block node. Function literals are flagged as a whole (the closure
// allocates) and not descended into; panic arguments are exempt.
func (c *allocChecker) checkNode(n ast.Node, facts cfg.Set) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			c.flag(x.Pos(), "function literal allocates a closure on the hot path")
			return false
		case *ast.CallExpr:
			return c.checkCallAlloc(x, facts)
		case *ast.CompositeLit:
			if t := c.pass.Info.Types[x].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					c.flag(x.Pos(), "slice literal allocates on the hot path")
				case *types.Map:
					c.flag(x.Pos(), "map literal allocates on the hot path")
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					c.flag(x.Pos(), "&-literal escapes to the heap on the hot path")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := c.pass.Info.Types[x]; ok && tv.Value == nil && isStringType(tv.Type) {
					c.flag(x.Pos(), "string concatenation allocates on the hot path")
				}
			}
		}
		return true
	})
}

// checkCallAlloc handles the call forms: builtins, conversions, and
// interface boxing of arguments. It returns false to stop the walk
// below exempt panics.
func (c *allocChecker) checkCallAlloc(call *ast.CallExpr, facts cfg.Set) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "panic":
				return false // a panicking hot path is already lost
			case "make":
				c.flag(call.Pos(), "make allocates on the hot path")
			case "new":
				c.flag(call.Pos(), "new allocates on the hot path")
			case "append":
				if !c.reuseBacked(call.Args[0], facts) {
					c.flag(call.Pos(), "append to %s is not provably reuse-backed (no parameter or field-reslice reaches it); hot-path appends must reuse capacity",
						types.ExprString(call.Args[0]))
				}
			}
			return true
		}
	}
	// Conversions: to a slice (copies), or slice to string (copies).
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && !isNilIdent(call.Args[0]) {
			if _, ok := tv.Type.Underlying().(*types.Slice); ok {
				c.flag(call.Pos(), "conversion to %s allocates a copy on the hot path", types.ExprString(call.Fun))
			} else if isStringType(tv.Type) {
				if at := c.pass.Info.Types[call.Args[0]].Type; at != nil {
					if _, ok := at.Underlying().(*types.Slice); ok {
						c.flag(call.Pos(), "conversion from %s to string allocates a copy on the hot path", at)
					}
				}
			}
		}
		return true
	}
	// Interface boxing: a non-constant concrete argument passed to an
	// interface-typed parameter allocates the interface value.
	sig, ok := c.pass.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return true
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call.Ellipsis != token.NoPos)
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := c.pass.Info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil {
			continue // constants box into read-only statics
		}
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			continue
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		c.flag(arg.Pos(), "argument %s is boxed into an interface parameter on the hot path", types.ExprString(arg))
	}
	return true
}

// paramTypeAt resolves the type of the i-th argument's parameter,
// unwrapping the variadic tail unless the call spreads a slice.
func paramTypeAt(sig *types.Signature, i int, hasEllipsis bool) types.Type {
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if hasEllipsis {
			return params.At(n - 1).Type()
		}
		if s, ok := params.At(n - 1).Type().Underlying().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return params.At(i).Type()
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
