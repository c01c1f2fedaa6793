package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FaultSafety enforces the fault-harness discipline introduced with the
// resilient measurement stack.
//
// Two rules:
//
//  1. Leaked cancel functions: an assignment binding a context.CancelFunc
//     (context.WithCancel/WithTimeout/WithDeadline, or the harness's
//     LaunchContext) must release it — call it, defer it, return it or
//     pass it on. Discarding the cancel with `_` (directly or via
//     `_ = cancel`) leaks the watchdog timer and, for deadline contexts,
//     keeps the parent's resources pinned until the deadline fires.
//
//  2. Unclassified fault-point callers: the fault-aware driver entry
//     points (RunMeteredCtx, LaunchCtx, OpenBoardWithFaults,
//     OpenSpecWithFaults, and BoardModel.OpenWithFaults, the fleet's boot
//     seam) report injected faults as transient errors that
//     the caller must classify and retry. A file that calls them without
//     any visible classification (fault.PointOf / IsTransient / IsFault)
//     or retry machinery treats every injected fault as a hard error,
//     which defeats the harness. internal/driver itself, where the entry
//     points are defined, is exempt.
var FaultSafety = &Analyzer{
	Name: "faultsafety",
	Doc:  "leaked context cancel functions; fault-point calls without retry/classification",
	Run:  runFaultSafety,
}

// faultEntryPoints are the driver methods/constructors that surface
// injected faults to their caller.
var faultEntryPoints = map[string]bool{
	"RunMeteredCtx":       true,
	"LaunchCtx":           true,
	"OpenBoardWithFaults": true,
	"OpenSpecWithFaults":  true,
	"OpenWithFaults":      true,
}

// classificationMarkers are the identifiers whose presence shows a file
// classifies transient faults.
var classificationMarkers = map[string]bool{
	"PointOf":     true,
	"IsTransient": true,
	"IsFault":     true,
}

func runFaultSafety(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		checkCancelFuncs(pass, info, file)
		if pass.Pkg.Path != "gpuperf/internal/driver" {
			checkFaultCallers(pass, info, file)
		}
	}
}

// isCancelFunc reports whether t is context.CancelFunc.
func isCancelFunc(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "CancelFunc"
}

// checkCancelFuncs applies rule 1 to one file: every cancel function bound
// by a `:=` assignment must have at least one non-discarding use.
func checkCancelFuncs(pass *Pass, info *types.Info, file *ast.File) {
	// discarded holds objects whose only observed uses are `_ = x` style
	// blank assignments; those do not count as releasing the cancel.
	discards := map[types.Object]int{}
	uses := map[types.Object]int{}
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			li, ok := lhs.(*ast.Ident)
			if !ok || li.Name != "_" {
				continue
			}
			if ri, ok := ast.Unparen(as.Rhs[i]).(*ast.Ident); ok {
				if obj := info.Uses[ri]; obj != nil {
					discards[obj]++
				}
			}
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil {
			uses[obj]++
		}
		return true
	})

	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		tuple, ok := info.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if !isCancelFunc(tuple.At(i).Type()) {
				continue
			}
			li, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if li.Name == "_" {
				pass.Reportf(li.Pos(),
					"cancel function discarded with _; the watchdog timer leaks — call it, defer it or return it")
				continue
			}
			obj := info.Defs[li]
			if obj == nil {
				// plain `=` to an existing variable: its lifetime is managed
				// elsewhere.
				continue
			}
			if uses[obj]-discards[obj] <= 0 {
				pass.Reportf(li.Pos(),
					"cancel function %s is never released (only discarded); call it, defer it or return it", li.Name)
			}
		}
		return true
	})
}

// checkFaultCallers applies rule 2 to one file: calls to the fault-aware
// driver entry points require visible fault classification or retry
// machinery somewhere in the same file.
func checkFaultCallers(pass *Pass, info *types.Info, file *ast.File) {
	classifies := false
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if classificationMarkers[id.Name] || strings.Contains(strings.ToLower(id.Name), "retr") {
			classifies = true
			return false
		}
		return true
	})
	if classifies {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		default:
			return true
		}
		if faultEntryPoints[name] {
			pass.Reportf(call.Pos(),
				"%s surfaces injected faults as transient errors, but this file never classifies or retries them; wrap the call in a retry loop and classify with fault.PointOf", name)
		}
		return true
	})
}
