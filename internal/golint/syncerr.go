package golint

import (
	"go/ast"
	"go/types"
)

// SyncErrcheck forbids discarding the error of (*os.File).Sync or
// (*os.File).Close on write paths. The crash-safety layer (the DIP
// journal's and rild's job manifest's fsync-per-record) is only as
// strong as its weakest unchecked close: a full disk or failing device
// surfaces exactly there, and a discarded error silently truncates the
// durability guarantee.
//
// A file counts as a write path when it was opened in the same
// function by os.Create, os.CreateTemp, or os.OpenFile with a write
// flag (O_WRONLY, O_RDWR or O_APPEND). Read-path files (os.Open) are
// exempt, including defer f.Close(). Durable writer types configured
// in Options.DurableTypes (by default the attack DIP journal,
// *attack.Journal) are checked wherever the value came from.
//
// Flagged forms: a bare statement `f.Close()`, `defer f.Close()`
// (the error is unobservable), and `_ = f.Close()` (an explicit
// discard still loses the durability signal — if the discard is
// genuinely intended, say why with //rilvet:ignore sync-errcheck).
// The fix on error paths is errors.Join(err, f.Close()); on success
// paths, return or check the close error.
var SyncErrcheck = &Analyzer{
	Name: "sync-errcheck",
	Doc:  "forbid unchecked Sync/Close errors on write-path files and durable writers",
	Run:  runSyncErrcheck,
}

func runSyncErrcheck(p *Pass) error {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if body := funcBody(n); body != nil {
				checkSyncErr(p, body)
			}
			return true
		})
	}
	return nil
}

// checkSyncErr analyzes one function body: collects files write-opened
// in it, then flags discarded Close/Sync results on them (and on
// durable writer types, wherever their values came from).
func checkSyncErr(p *Pass, body *ast.BlockStmt) {
	writeFiles := collectWriteFiles(p, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate body, analyzed on its own
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				reportDiscarded(p, call, writeFiles, "discarded")
			}
		case *ast.DeferStmt:
			reportDiscarded(p, n.Call, writeFiles, "unobservable in defer")
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 && isBlank(n.Lhs[0]) {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					reportDiscarded(p, call, writeFiles, "explicitly discarded with _")
				}
			}
		}
		return true
	})
}

func isBlank(e ast.Expr) bool {
	ident, ok := e.(*ast.Ident)
	return ok && ident.Name == "_"
}

// reportDiscarded flags call when it is a Close/Sync on a tracked
// write-path file or a durable writer type.
func reportDiscarded(p *Pass, call *ast.CallExpr, writeFiles map[types.Object]bool, how string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	method := sel.Sel.Name
	if method != "Close" && method != "Sync" {
		return
	}
	recv := rootIdent(sel.X)
	if recv != nil {
		if obj := p.ObjectOf(recv); obj != nil && writeFiles[obj] {
			p.Report(call.Pos(),
				"%s.%s() error %s on a write-path file; a failed close can lose buffered data — check it (errors.Join(err, %s.%s()) on error paths)",
				recv.Name, method, how, recv.Name, method)
			return
		}
	}
	for _, durable := range p.Opts.durableTypes() {
		if p.IsType(sel.X, durable) {
			p.Report(call.Pos(),
				"%s error %s on durable writer %s; a failed close truncates the crash-safety guarantee — check it",
				method, how, durable)
			return
		}
	}
}

// collectWriteFiles finds variables initialized in this body from
// write-opening os calls: os.Create, os.CreateTemp, and os.OpenFile
// with an explicit write flag.
func collectWriteFiles(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || !isWriteOpen(call) || len(assign.Lhs) == 0 {
			return true
		}
		if ident, ok := assign.Lhs[0].(*ast.Ident); ok && ident.Name != "_" {
			if obj := p.ObjectOf(ident); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// isWriteOpen reports whether call opens a file for writing:
// os.Create, os.CreateTemp, or os.OpenFile with O_WRONLY, O_RDWR or
// O_APPEND in its flag argument. An OpenFile whose flags are opaque
// (a variable) is not tracked — the analyzer errs toward silence on
// unknown flags.
func isWriteOpen(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "os" {
		return false
	}
	switch sel.Sel.Name {
	case "Create", "CreateTemp":
		return true
	case "OpenFile":
		if len(call.Args) < 2 {
			return false
		}
		return hasWriteFlag(call.Args[1])
	}
	return false
}

// hasWriteFlag reports whether the flag expression names O_WRONLY,
// O_RDWR or O_APPEND.
func hasWriteFlag(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		name := ""
		switch v := n.(type) {
		case *ast.Ident:
			name = v.Name
		case *ast.SelectorExpr:
			name = v.Sel.Name
		}
		switch name {
		case "O_WRONLY", "O_RDWR", "O_APPEND":
			found = true
			return false
		}
		return true
	})
	return found
}
