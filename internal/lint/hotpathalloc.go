package lint

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc guards PR 5's headline win: the plan/combine hot path
// went from 2311 to 104 allocs per enumeration, and that budget is
// part of the API contract, previously enforced only by a bench bound.
// Functions annotated
//
//	//reprolint:hotpath
//
// (seeded on AnalyzeWithPartial/Into, candidateInto, the chunk-combine
// body, and the /explore line encoder) may not:
//
//   - call the fmt.Sprint family (Sprintf/Sprint/Sprintln) — each call
//     allocates its result and boxes every operand. fmt.Errorf stays
//     legal: error paths are cold by definition.
//   - build closures that escape: a func literal is allowed only when
//     invoked immediately at its definition site (an IIFE compiles to
//     a direct call); a literal that is stored, passed, returned, or
//     launched as a goroutine allocates its capture environment.
//   - convert a concrete value to an interface, which boxes it. Values
//     that are already pointer-shaped (pointers, chans, maps, funcs)
//     and untyped nil are exempt, as are arguments to variadic ...any
//     parameters (error formatting on cold paths).
//   - append to a slice with no capacity evidence in the function: the
//     append target must be traceable to a make with explicit size, a
//     reslice of an existing backing array (buf[:0]), or a parameter
//     (preallocation is then the documented caller contract, as with
//     AnalyzeWithPartialInto's dst). Reassigning x = f(x, ...) through
//     an append-style function (first parameter and result the same
//     slice type, like strconv.AppendFloat) keeps x's evidence.
//
// Cold spots inside a hot function (a panic formatting branch, a
// once-per-run goroutine launch) are suppressed case by case with
// //reprolint:allow hotpathalloc <why>.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "//reprolint:hotpath functions may not Sprint, build escaping closures, box into " +
		"interfaces, or append without capacity evidence",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(p *Pass) {
	funcDecls(p, func(_ *ast.File, fn *ast.FuncDecl) {
		if fn.Body == nil || len(p.dirs.marks(fn, "hotpath")) == 0 {
			return
		}
		checkHotFunc(p, fn)
	})
}

func checkHotFunc(p *Pass, fn *ast.FuncDecl) {
	directCalled := map[*ast.FuncLit]bool{}
	goLaunched := map[*ast.FuncLit]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				goLaunched[fl] = true
			}
		case *ast.CallExpr:
			if fl, ok := n.Fun.(*ast.FuncLit); ok {
				directCalled[fl] = true
			}
		}
		return true
	})

	retSig := returnOwners(p, fn)
	capOK := capacityEvidence(p, fn)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			switch {
			case goLaunched[n]:
				p.Reportf(n.Pos(), "%s: goroutine closure allocates on the hot path (capture environment + g); hoist the launch out of the hot loop", fn.Name.Name)
			case !directCalled[n]:
				p.Reportf(n.Pos(), "%s: escaping closure allocates its capture environment on the hot path", fn.Name.Name)
			}
		case *ast.CallExpr:
			checkHotCall(p, fn, n, capOK)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					checkIfaceConv(p, fn, p.TypeOf(lhs), n.Rhs[i], "assignment")
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					checkIfaceConv(p, fn, p.TypeOf(n.Type), v, "assignment")
				}
			}
		case *ast.ReturnStmt:
			sig := retSig[n]
			if sig == nil || len(n.Results) != sig.Results().Len() {
				return true
			}
			for i, res := range n.Results {
				checkIfaceConv(p, fn, sig.Results().At(i).Type(), res, "return")
			}
		}
		return true
	})
}

// checkHotCall handles the call-site rules: Sprint-family bans, append
// capacity evidence, and boxing at non-variadic interface parameters.
func checkHotCall(p *Pass, fn *ast.FuncDecl, call *ast.CallExpr, capOK map[types.Object]bool) {
	if pkgPath, name, ok := calleePkgFunc(p, call); ok && pkgPath == "fmt" {
		switch name {
		case "Sprintf", "Sprint", "Sprintln":
			p.Reportf(call.Pos(), "%s: fmt.%s allocates its result and boxes every operand on the hot path; build the string off the hot path (fmt.Errorf on a cold error branch stays legal)", fn.Name.Name, name)
			return
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				checkAppendCapacity(p, fn, call, capOK)
			}
			// Other builtins never box on the hot path (panic is
			// terminal and cold by definition, despite the func(any)
			// signature go/types synthesizes for it).
			return
		}
	}
	sig, ok := types.Unalias(derefType(p.TypeOf(call.Fun))).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	limit := params.Len()
	if sig.Variadic() {
		limit-- // ...any and friends are exempt: variadic packing is for cold formatting paths
	}
	for i, arg := range call.Args {
		if i >= limit {
			break
		}
		checkIfaceConv(p, fn, params.At(i).Type(), arg, "argument")
	}
}

func derefType(t types.Type) types.Type {
	if t == nil {
		return types.Typ[types.Invalid]
	}
	return t
}

// checkIfaceConv flags a concrete→interface conversion, which boxes
// the value. Pointer-shaped values and nil do not allocate.
func checkIfaceConv(p *Pass, fn *ast.FuncDecl, target types.Type, val ast.Expr, site string) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := p.Pkg.Info.Types[val]
	if !ok || tv.IsNil() || tv.Type == nil || types.IsInterface(tv.Type) {
		return
	}
	switch types.Unalias(tv.Type).Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	p.Reportf(val.Pos(), "%s: %s converts concrete %s to interface %s, boxing it on the hot path; pass a pointer or keep the concrete type",
		fn.Name.Name, site, tv.Type, target)
}

// capacityEvidence collects the objects in fn that carry capacity
// evidence: assigned from make with an explicit size, from a reslice
// of an existing backing array, or bound as parameters (caller
// preallocation contract).
func capacityEvidence(p *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	ok := map[types.Object]bool{}
	addParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := p.Pkg.Info.Defs[name]; obj != nil {
					ok[obj] = true
				}
			}
		}
	}
	addParams(fn.Recv)
	addParams(fn.Type.Params)
	addParams(fn.Type.Results) // named results: assigned before use like params

	record := func(lhs, rhs ast.Expr) {
		obj := lvalueObject(p, lhs)
		if obj == nil {
			return
		}
		if hasCapacity(p, rhs, obj, ok) {
			ok[obj] = true
		} else {
			delete(ok, obj) // reassignment from an unknown source loses the evidence
		}
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					record(name, n.Values[i])
				}
			}
		}
		return true
	})
	return ok
}

// hasCapacity reports whether rhs is a capacity-bearing expression for
// target: make with a size, a slice expression, or append back into a
// target that already has evidence.
func hasCapacity(p *Pass, rhs ast.Expr, target types.Object, known map[types.Object]bool) bool {
	switch rhs := rhs.(type) {
	case *ast.SliceExpr:
		return true
	case *ast.CallExpr:
		growsTarget := len(rhs.Args) > 0 && lvalueObject(p, rhs.Args[0]) == target && known[target]
		if id, ok := rhs.Fun.(*ast.Ident); ok {
			if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make":
					return len(rhs.Args) >= 2 // make([]T, n) or make([]T, n, c)
				case "append":
					// x = append(x, ...) preserves x's evidence.
					return growsTarget
				}
				return false
			}
		}
		// x = f(x, ...) through an append-style function (strconv.AppendFloat
		// and the like) grows x exactly as append does.
		return growsTarget && appendStyle(p, rhs)
	}
	return false
}

// appendStyle reports whether call's callee has the append shape: its
// first parameter and its only result are the same slice type.
func appendStyle(p *Pass, call *ast.CallExpr) bool {
	sig, ok := types.Unalias(derefType(p.TypeOf(call.Fun))).(*types.Signature)
	if !ok || sig.Params().Len() == 0 || sig.Results().Len() != 1 {
		return false
	}
	first := sig.Params().At(0).Type()
	if _, ok := first.Underlying().(*types.Slice); !ok {
		return false
	}
	return types.Identical(first, sig.Results().At(0).Type())
}

// lvalueObject resolves an ident or selector to its variable object.
func lvalueObject(p *Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := p.Pkg.Info.Defs[e]; obj != nil {
			return obj
		}
		return p.Pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		return p.Pkg.Info.Uses[e.Sel]
	}
	return nil
}

func checkAppendCapacity(p *Pass, fn *ast.FuncDecl, call *ast.CallExpr, capOK map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	obj := lvalueObject(p, call.Args[0])
	if obj != nil && capOK[obj] {
		return
	}
	p.Reportf(call.Pos(), "%s: append without capacity evidence grows amortized on the hot path; preallocate with make(..., 0, n) or reslice an existing buffer", fn.Name.Name)
}

// returnOwners maps each return statement under fn to the signature it
// returns from (the function itself, or an enclosing func literal).
func returnOwners(p *Pass, fn *ast.FuncDecl) map[*ast.ReturnStmt]*types.Signature {
	out := map[*ast.ReturnStmt]*types.Signature{}
	fnSig, _ := p.TypeOf(fn.Name).(*types.Signature)
	var walk func(body ast.Node, sig *types.Signature)
	walk = func(body ast.Node, sig *types.Signature) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				litSig, _ := types.Unalias(derefType(p.TypeOf(n))).(*types.Signature)
				walk(n.Body, litSig)
				return false
			case *ast.ReturnStmt:
				out[n] = sig
			}
			return true
		})
	}
	walk(fn.Body, fnSig)
	return out
}
