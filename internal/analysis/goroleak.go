package analysis

import (
	"go/ast"
	"go/types"

	"busarb/internal/analysis/cfg"
)

// GoroLeak requires every goroutine the daemon and its client spawn to
// be tied to a shutdown path. A `go` statement passes if either:
//
//  1. WaitGroup discipline: some wg.Add(...) on the same WaitGroup
//     object dominates the go statement (the cfg dominator query), and
//     the spawned function calls wg.Done() — deferred or not. This is
//     BinaryServer's per-connection and per-acquire shape, and
//     loadgen's worker fan-out.
//
//  2. Close-signaled channel: the spawned function's steady state is
//     driven by a channel receive in a select clause, or by ranging
//     over a channel, where some function in the package close()s that
//     same channel object. This is the shard loop (select on s.done,
//     closed by stop) and the connection writer (range over responses,
//     closed by its spawner). A bare blocking receive does not count:
//     joining is not a shutdown signal — that is the WaitGroup's job.
//
// Anything else needs an //arblint:allow goroleak with a justification.
//
// The analyzer binds in internal/arbd, its cluster layer, the calling
// side's connection (internal/arbd/mux) and the public client package
// — the long-lived processes. Simulators are synchronous by design and
// out of scope.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "every go statement in the daemon and client must be tied to a shutdown " +
		"path: a dominating WaitGroup.Add with Done in the goroutine, or a " +
		"select/range on a channel the package closes",
	AppliesTo: goroLeakApplies,
	Run:       runGoroLeak,
}

func goroLeakApplies(pkgPath string) bool {
	return pathHasSuffix(pkgPath, "internal/arbd") ||
		pathHasSuffix(pkgPath, "internal/arbd/cluster") ||
		pathHasSuffix(pkgPath, "internal/arbd/mux") ||
		pathHasSuffix(pkgPath, "client")
}

func runGoroLeak(pass *Pass) error {
	c := &leakChecker{
		pass:   pass,
		decls:  make(map[*types.Func]*ast.FuncDecl),
		closed: make(map[types.Object]bool),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				c.decls[fn] = fd
			}
			// Record every close(ch) in the package.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "close" {
					return true
				}
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				if obj := baseObject(pass.Info, call.Args[0]); obj != nil {
					c.closed[obj] = true
				}
				return true
			})
		}
	}

	for _, fd := range sortedDecls(c.decls) {
		c.checkUnit(fd.Body)
	}
	return nil
}

type leakChecker struct {
	pass   *Pass
	decls  map[*types.Func]*ast.FuncDecl
	closed map[types.Object]bool
}

// sortedDecls returns the declarations in source order so diagnostics
// are deterministic.
func sortedDecls(decls map[*types.Func]*ast.FuncDecl) []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(decls))
	for _, fd := range decls {
		out = append(out, fd)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Pos() > out[j].Pos(); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// checkUnit checks the go statements at one function body's level.
// Nested function literals are their own units: their go statements
// are checked against their own graphs (a literal's spawner is the
// literal, wherever it runs).
func (c *leakChecker) checkUnit(body *ast.BlockStmt) {
	var gos []*ast.GoStmt
	var lits []*ast.FuncLit
	collectUnit(body, &gos, &lits)
	if len(gos) > 0 {
		g := cfg.Build(body)
		for _, stmt := range gos {
			c.checkGo(g, stmt)
		}
	}
	for _, lit := range lits {
		c.checkUnit(lit.Body)
	}
}

// collectUnit gathers the go statements and function literals at one
// nesting level, stopping at literal boundaries.
func collectUnit(n ast.Node, gos *[]*ast.GoStmt, lits *[]*ast.FuncLit) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			*gos = append(*gos, x)
			// The spawned callee (and its args) belong to this unit's
			// source; a literal spawned here is the goroutine body and is
			// handled by checkGo, but its own nested go statements still
			// need checking.
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				*lits = append(*lits, lit)
			}
			for _, arg := range x.Call.Args {
				collectUnit(arg, gos, lits)
			}
			return false
		case *ast.FuncLit:
			*lits = append(*lits, x)
			return false
		}
		return true
	})
}

func (c *leakChecker) checkGo(g *cfg.Graph, stmt *ast.GoStmt) {
	body := c.spawnedBody(stmt.Call)
	if body != nil {
		if obj := c.doneWaitGroup(body); obj != nil && c.addDominatesGo(g, stmt, obj) {
			return
		}
		if c.receivesClosedChannel(body) {
			return
		}
	}
	c.pass.Reportf(stmt.Pos(), "go statement is not tied to a shutdown path: no dominating WaitGroup.Add with Done in the goroutine, and no select/range on a channel this package closes")
}

// spawnedBody resolves the body of the function the go statement runs:
// a literal's own body, or the declaration of a package function or
// method called directly.
func (c *leakChecker) spawnedBody(call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn := calleeFunc(c.pass.Info, call); fn != nil {
		if fd := c.decls[fn]; fd != nil {
			return fd.Body
		}
	}
	return nil
}

// doneWaitGroup returns the sync.WaitGroup object on which the spawned
// body calls Done (deferred or not), not counting literals nested in
// the body (they are other goroutines' business).
func (c *leakChecker) doneWaitGroup(body *ast.BlockStmt) types.Object {
	var obj types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if t := c.pass.Info.Types[sel.X].Type; t == nil || !isWaitGroupType(t) {
			return true
		}
		obj = baseObject(c.pass.Info, sel.X)
		return obj == nil
	})
	return obj
}

// addDominatesGo reports whether a wg.Add call on the same WaitGroup
// object dominates the go statement in the spawning function's graph
// (same block counts when the Add precedes the go in source order).
func (c *leakChecker) addDominatesGo(g *cfg.Graph, stmt *ast.GoStmt, wg types.Object) bool {
	goBlock := blockContaining(g, stmt)
	if goBlock == nil {
		return false
	}
	found := false
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			ast.Inspect(n, func(x ast.Node) bool {
				if found {
					return false
				}
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Add" {
					return true
				}
				if t := c.pass.Info.Types[sel.X].Type; t == nil || !isWaitGroupType(t) {
					return true
				}
				if baseObject(c.pass.Info, sel.X) != wg {
					return true
				}
				if blk == goBlock {
					found = call.Pos() < stmt.Pos()
				} else {
					found = g.Dominates(blk, goBlock)
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

// blockContaining finds the block whose nodes contain stmt (possibly
// nested inside a compound node).
func blockContaining(g *cfg.Graph, stmt ast.Stmt) *cfg.Block {
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(x ast.Node) bool {
				if x == stmt {
					found = true
				}
				return !found
			})
			if found {
				return blk
			}
		}
	}
	return nil
}

// receivesClosedChannel reports whether the body's control is driven
// by a channel the package closes: a select clause receiving from it,
// or a range over it. Bare receives don't count — see the analyzer
// doc.
func (c *leakChecker) receivesClosedChannel(body *ast.BlockStmt) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				var recv ast.Expr
				switch comm := cc.Comm.(type) {
				case *ast.ExprStmt:
					recv = receiveOperand(comm.X)
				case *ast.AssignStmt:
					if len(comm.Rhs) == 1 {
						recv = receiveOperand(comm.Rhs[0])
					}
				}
				if recv != nil && c.closed[baseObject(c.pass.Info, recv)] {
					tied = true
				}
			}
		case *ast.RangeStmt:
			if t := c.pass.Info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					if c.closed[baseObject(c.pass.Info, n.X)] {
						tied = true
					}
				}
			}
		}
		return !tied
	})
	return tied
}

// receiveOperand unwraps `<-ch` to ch.
func receiveOperand(e ast.Expr) ast.Expr {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op.String() != "<-" {
		return nil
	}
	return u.X
}

func isWaitGroupType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// baseObject resolves the identity of a channel or WaitGroup
// expression: the variable for an identifier, the field for a
// selector — one object per field across every receiver value, which
// is what ties close(s.done) in stop to <-s.done in loop.
func baseObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}
