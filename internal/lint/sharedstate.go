package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerSharedState mechanizes the worker-invariance discipline for
// goroutine closures (`go func(...) {...}(...)`): state captured from
// the enclosing function may only be written through an element
// indexed by a goroutine-local variable (per-worker slots, per-island
// shards) or handed off through a channel send. Two shapes are flagged:
//
//   - a plain write (assignment, compound assignment, IncDec) whose
//     lvalue roots at a captured variable and carries no
//     goroutine-local index anywhere in its chain;
//   - a method call whose receiver roots at a captured variable and
//     whose module-local callee transitively mutates its receiver
//     (ModuleIndex.ReceiverMutator).
//
// A goroutine body may also be built once and launched later (`go
// run()` on a prebuilt func value, which spares each launch a closure
// allocation). A function whose doc comment carries //detlint:goroutines
// declares that every function literal in its body is such a body;
// each is checked as a go closure is.
//
// Calls into other packages (sync.WaitGroup.Done, atomic.Int64.Add)
// have no call-graph node and pass silently, which is exactly the
// escape hatch synchronization primitives need. Writes through locally
// derived pointers into captured state are invisible to this analyzer;
// the race detector remains the backstop for those.
var AnalyzerSharedState = &Analyzer{
	Name: "sharedstate",
	Doc:  "goroutine closures must confine captured-state writes to locally indexed slots, channel sends, or external sync",
	Run:  runSharedState,
}

// goroutinesMarker is the doc-comment line that declares a function's
// literals goroutine bodies.
const goroutinesMarker = "//detlint:goroutines"

func runSharedState(p *Pass) {
	if p.Index == nil {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body == nil || !declMarker(x.Doc, goroutinesMarker) {
					return true
				}
				ast.Inspect(x.Body, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						checkGoClosure(p, fl)
						return false
					}
					return true
				})
				return false
			case *ast.GoStmt:
				if fl, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
					checkGoClosure(p, fl)
				}
			}
			return true
		})
	}
}

func checkGoClosure(p *Pass, fl *ast.FuncLit) {
	// A variable is goroutine-local when declared within the literal's
	// extent: its parameters and everything defined in its body.
	isLocal := func(obj types.Object) bool {
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		return v.Pos() >= fl.Pos() && v.Pos() <= fl.End()
	}
	captured := func(obj types.Object) bool {
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return false
		}
		return !isLocal(obj)
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				checkGoWrite(p, fl, lhs, isLocal, captured)
			}
		case *ast.IncDecStmt:
			checkGoWrite(p, fl, x.X, isLocal, captured)
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id := rootIdent(sel.X)
			if id == nil || !captured(objOf(p.Info, id)) {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			if cn := p.Index.NodeOf(fn); cn != nil && p.Index.ReceiverMutator(cn) {
				p.Reportf(x.Pos(), "goroutine calls %s.%s, which mutates the captured %s; confine the mutation to a per-goroutine shard or a mailbox send", id.Name, sel.Sel.Name, id.Name)
			}
		}
		return true
	})
}

// checkGoWrite flags a write inside a goroutine closure whose target
// roots at a captured variable, unless some index along the lvalue
// chain is computed from a goroutine-local variable (the per-slot
// confinement pattern: out[i] = ... with i a goroutine parameter).
func checkGoWrite(p *Pass, fl *ast.FuncLit, lhs ast.Expr, isLocal, captured func(types.Object) bool) {
	lhs = ast.Unparen(lhs)
	root := rootIdent(lhs)
	if root == nil || !captured(objOf(p.Info, root)) {
		return
	}
	for e := lhs; ; {
		switch x := e.(type) {
		case *ast.IndexExpr:
			localIdx := false
			ast.Inspect(x.Index, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && isLocal(objOf(p.Info, id)) {
					localIdx = true
				}
				return true
			})
			if localIdx {
				return
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			p.Reportf(lhs.Pos(), "goroutine writes captured %s without per-slot confinement; index it by a goroutine-local variable, send it over a channel, or keep it goroutine-local", root.Name)
			return
		}
	}
}
