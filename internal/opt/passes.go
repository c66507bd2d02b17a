package opt

import (
	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
)

// ---- constant folding ----

// ConstFold folds literal scalar arithmetic, literal conditionals, literal
// casts and literal safe-math calls, mirroring the evaluator's semantics
// exactly. With the WCSwizzleFold defect armed it miscompiles swizzles of
// literal vectors (the Intel vector defects of Table 4). Copy-on-write:
// the input program is never written to.
func ConstFold(p *ast.Program, defects bugs.Set) *ast.Program {
	return rewriteProgram(p, func(e ast.Expr) ast.Expr { return foldExpr(e, defects) })
}

func lit(e ast.Expr) (*ast.IntLit, bool) {
	l, ok := e.(*ast.IntLit)
	return l, ok
}

func scalarType(e ast.Expr) (*cltypes.Scalar, bool) {
	s, ok := e.Type().(*cltypes.Scalar)
	return s, ok
}

func makeLit(v uint64, t *cltypes.Scalar) *ast.IntLit { return ast.NewIntLit(v, t) }

func foldExpr(e ast.Expr, defects bugs.Set) ast.Expr {
	switch ex := e.(type) {
	case *ast.Unary:
		x, ok := lit(ex.X)
		if !ok {
			return e
		}
		xt, ok := scalarType(ex.X)
		if !ok {
			return e
		}
		rt, ok := scalarType(ex)
		if !ok {
			return e
		}
		switch ex.Op {
		case ast.Neg:
			return makeLit(cltypes.Neg(cltypes.Convert(x.Val, xt, rt), rt), rt)
		case ast.Pos:
			return makeLit(cltypes.Convert(x.Val, xt, rt), rt)
		case ast.BitNot:
			return makeLit(cltypes.Not(cltypes.Convert(x.Val, xt, rt), rt), rt)
		case ast.LogNot:
			return makeLit(cltypes.LNot(x.Val, xt), cltypes.TInt)
		}
		return e
	case *ast.Binary:
		return foldBinary(ex)
	case *ast.Cond:
		c, ok := lit(ex.C)
		if !ok {
			return e
		}
		ct, ok := scalarType(ex.C)
		if !ok {
			return e
		}
		var branch ast.Expr
		if cltypes.Trunc(c.Val, ct) != 0 {
			branch = ex.T
		} else {
			branch = ex.F
		}
		if bl, ok := lit(branch); ok {
			if bt, ok := scalarType(branch); ok {
				if rt, ok := scalarType(ex); ok {
					return makeLit(cltypes.Convert(bl.Val, bt, rt), rt)
				}
			}
		}
		return e
	case *ast.Cast:
		x, ok := lit(ex.X)
		if !ok {
			return e
		}
		xt, ok := scalarType(ex.X)
		if !ok {
			return e
		}
		if rt, ok := ex.To.(*cltypes.Scalar); ok {
			return makeLit(cltypes.Convert(x.Val, xt, rt), rt)
		}
		return e
	case *ast.Call:
		return foldCall(ex)
	case *ast.Swizzle:
		return foldSwizzle(ex, defects)
	}
	return e
}

func foldBinary(ex *ast.Binary) ast.Expr {
	l, lok := lit(ex.L)
	r, rok := lit(ex.R)
	lt, ltok := scalarType(ex.L)
	rt, rtok := scalarType(ex.R)
	if !ltok || !rtok {
		return ex
	}
	st, stok := scalarType(ex)
	if !stok {
		return ex
	}
	// Short-circuit folds need only a literal left operand: the right side
	// is provably (not) evaluated, so purity is irrelevant.
	if ex.Op == ast.LAnd && lok {
		if cltypes.Trunc(l.Val, lt) == 0 {
			return makeLit(0, cltypes.TInt)
		}
		if rok {
			return makeLit(uint64(b2i(cltypes.Trunc(r.Val, rt) != 0)), cltypes.TInt)
		}
		return ex
	}
	if ex.Op == ast.LOr && lok {
		if cltypes.Trunc(l.Val, lt) != 0 {
			return makeLit(1, cltypes.TInt)
		}
		if rok {
			return makeLit(uint64(b2i(cltypes.Trunc(r.Val, rt) != 0)), cltypes.TInt)
		}
		return ex
	}
	if ex.Op == ast.Comma {
		if IsPure(ex.L) {
			return ex.R
		}
		return ex
	}
	if !lok || !rok {
		return ex
	}
	if ex.Op.IsComparison() {
		ct := cltypes.UsualArith(lt, rt)
		a := cltypes.Convert(l.Val, lt, ct)
		b := cltypes.Convert(r.Val, rt, ct)
		return makeLit(compareFold(ex.Op, a, b, ct), st)
	}
	if ex.Op == ast.Shl || ex.Op == ast.Shr {
		pl := cltypes.Promote(lt)
		a := cltypes.Convert(l.Val, lt, pl)
		if ex.Op == ast.Shl {
			return makeLit(cltypes.Shl(a, r.Val, pl, rt), st)
		}
		return makeLit(cltypes.Shr(a, r.Val, pl, rt), st)
	}
	a := cltypes.Convert(l.Val, lt, st)
	b := cltypes.Convert(r.Val, rt, st)
	var v uint64
	switch ex.Op {
	case ast.Add:
		v = cltypes.Add(a, b, st)
	case ast.Sub:
		v = cltypes.Sub(a, b, st)
	case ast.Mul:
		v = cltypes.Mul(a, b, st)
	case ast.Div:
		v = cltypes.Div(a, b, st)
	case ast.Mod:
		v = cltypes.Mod(a, b, st)
	case ast.And:
		v = cltypes.And(a, b, st)
	case ast.Or:
		v = cltypes.Or(a, b, st)
	case ast.Xor:
		v = cltypes.Xor(a, b, st)
	default:
		return ex
	}
	return makeLit(v, st)
}

func compareFold(op ast.BinOp, a, b uint64, t *cltypes.Scalar) uint64 {
	switch op {
	case ast.EQ:
		return cltypes.CmpEQ(a, b, t)
	case ast.NE:
		return 1 - cltypes.CmpEQ(a, b, t)
	case ast.LT:
		return cltypes.CmpLT(a, b, t)
	case ast.LE:
		return cltypes.CmpLE(a, b, t)
	case ast.GT:
		return cltypes.CmpLT(b, a, t)
	default:
		return cltypes.CmpLE(b, a, t)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// foldCall folds safe-math and element-wise builtin calls whose arguments
// are all scalar literals. The operand buffer lives on the stack (maximum
// arity is 3, the clamp family): this function runs for every call node
// on every fold pass, and the overwhelmingly common non-literal case must
// not allocate.
func foldCall(ex *ast.Call) ast.Expr {
	switch ex.Name {
	case "safe_add", "safe_sub", "safe_mul", "safe_div", "safe_mod",
		"safe_lshift", "safe_rshift", "safe_unary_minus", "safe_clamp",
		"clamp", "rotate", "min", "max", "abs", "add_sat", "sub_sat",
		"hadd", "mul_hi", "popcount", "clz":
	default:
		return ex
	}
	rt, ok := scalarType(ex)
	if !ok {
		return ex
	}
	var vals [3]uint64
	if len(ex.Args) > len(vals) {
		return ex
	}
	for i, a := range ex.Args {
		l, ok := lit(a)
		if !ok {
			return ex
		}
		at, ok := scalarType(a)
		if !ok {
			return ex
		}
		vals[i] = cltypes.Convert(l.Val, at, rt)
	}
	return makeLit(foldMath(ex.Name, vals[:len(ex.Args)], rt), rt)
}

// foldMath mirrors the evaluator's math builtin semantics (exec.mathOp);
// both are thin dispatchers over cltypes, so they cannot drift.
func foldMath(name string, v []uint64, t *cltypes.Scalar) uint64 {
	switch name {
	case "safe_add":
		return cltypes.Add(v[0], v[1], t)
	case "safe_sub":
		return cltypes.Sub(v[0], v[1], t)
	case "safe_mul":
		return cltypes.Mul(v[0], v[1], t)
	case "safe_div":
		return cltypes.Div(v[0], v[1], t)
	case "safe_mod":
		return cltypes.Mod(v[0], v[1], t)
	case "safe_lshift":
		return cltypes.Shl(v[0], v[1], t, t)
	case "safe_rshift":
		return cltypes.Shr(v[0], v[1], t, t)
	case "safe_unary_minus":
		return cltypes.Neg(v[0], t)
	case "safe_clamp":
		if cltypes.CmpLT(v[2], v[1], t) == 1 {
			return cltypes.Trunc(v[0], t)
		}
		return cltypes.Clamp(v[0], v[1], v[2], t)
	case "clamp":
		return cltypes.Clamp(v[0], v[1], v[2], t)
	case "rotate":
		return cltypes.Rotate(v[0], v[1], t)
	case "min":
		return cltypes.Min(v[0], v[1], t)
	case "max":
		return cltypes.Max(v[0], v[1], t)
	case "abs":
		return cltypes.Abs(v[0], t)
	case "add_sat":
		return cltypes.AddSat(v[0], v[1], t)
	case "sub_sat":
		return cltypes.SubSat(v[0], v[1], t)
	case "hadd":
		return cltypes.HAdd(v[0], v[1], t)
	case "mul_hi":
		return cltypes.MulHi(v[0], v[1], t)
	case "popcount":
		return cltypes.Popcount(v[0], t)
	case "clz":
		return cltypes.Clz(v[0], t)
	}
	return 0
}

// foldSwizzle folds a single-component swizzle of an all-literal vector
// literal. With the WCSwizzleFold defect armed it selects the wrong
// component (off by one), modeling the optimization-sensitive vector wrong-
// code results of Intel configurations 14+/15+ (Table 4).
func foldSwizzle(ex *ast.Swizzle, defects bugs.Set) ast.Expr {
	vl, ok := ex.Base.(*ast.VecLit)
	if !ok {
		return ex
	}
	idx := cltypes.SwizzleIndices(ex.Sel)
	if len(idx) != 1 {
		return ex
	}
	if len(vl.Elems) != vl.VT.Len {
		return ex // splat form; leave to the evaluator
	}
	l, ok := lit(vl.Elems[idx[0]])
	if !ok {
		return ex
	}
	for _, el := range vl.Elems {
		if _, ok := lit(el); !ok {
			return ex
		}
	}
	i := idx[0]
	if defects.Has(bugs.WCSwizzleFold) {
		i = (i + 1) % vl.VT.Len
		l = vl.Elems[i].(*ast.IntLit)
	}
	lt, ok := scalarType(vl.Elems[i])
	if !ok {
		return ex
	}
	return makeLit(cltypes.Convert(l.Val, lt, vl.VT.Elem), vl.VT.Elem)
}

// ---- defect-model rewrites (EarlyFolds) ----

// FoldDefects reports the defect bits EarlyFolds and Optimize can act on
// for a checked program p with source hash hash: WCRotateConstFold when p
// has a rotate call foldRotateWrong acts on (literalRotate), WCGroupIDExpr
// when the hash passes GroupIDGate and p calls a group-id builtin, and
// WCSwizzleFold when p has a swizzle (sema has already turned vector
// member accesses into swizzles). Each is a superset of its model's
// trigger: no pass creates a call or a swizzle, and the rotate fold runs
// first, bottom-up, so the only operand it sees turn literal is a nested
// rotate it folded, whose own operands were literal. A bit outside the
// result leaves both pipelines' output unchanged, so compiles that differ
// only in such bits build one program.
func FoldDefects(p *ast.Program, hash uint64) bugs.Set {
	var s bugs.Set
	fn := func(e ast.Expr) {
		switch ex := e.(type) {
		case *ast.Call:
			if literalRotate(ex) {
				s |= bugs.WCRotateConstFold
			} else if isGroupIDBuiltin(ex.Name) {
				s |= bugs.WCGroupIDExpr
			}
		case *ast.Swizzle:
			s |= bugs.WCSwizzleFold
		}
	}
	for _, g := range p.Globals {
		inspectExpr(g.Init, fn)
	}
	for _, f := range p.Funcs {
		if f.Body != nil {
			inspectStmt(f.Body, fn)
		}
	}
	if !GroupIDGate(hash) {
		s &^= bugs.WCGroupIDExpr
	}
	return s
}

// foldRotateWrong miscompiles rotate() with fully-literal arguments to the
// all-ones pattern (Figure 2(b): rotate((uint2)(1,1),(uint2)(0,0)).x was
// constant-folded to 0xffffffff).
func foldRotateWrong(e ast.Expr) ast.Expr {
	ex, ok := e.(*ast.Call)
	if !ok || !literalRotate(ex) {
		return e
	}
	switch rt := ex.Type().(type) {
	case *cltypes.Scalar:
		return makeLit(^uint64(0), rt)
	case *cltypes.Vector:
		vl := &ast.VecLit{VT: rt}
		for i := 0; i < rt.Len; i++ {
			vl.Elems = append(vl.Elems, makeLit(^uint64(0), rt.Elem))
		}
		vl.SetType(rt)
		return vl
	}
	return e
}

// literalRotate reports whether ex is a rotate call whose two operands are
// all literal: the shape foldRotateWrong folds.
func literalRotate(ex *ast.Call) bool {
	return ex.Name == "rotate" && len(ex.Args) == 2 && allLiteral(ex.Args[0]) && allLiteral(ex.Args[1])
}

func allLiteral(e ast.Expr) bool {
	switch ex := e.(type) {
	case *ast.IntLit:
		return true
	case *ast.VecLit:
		for _, el := range ex.Elems {
			if !allLiteral(el) {
				return false
			}
		}
		return true
	}
	return false
}

// flipGroupIDComparisons miscompiles comparisons whose operands involve the
// group id (Figure 2(e), config 9): the comparison is inverted. The input
// node is never written to; a flipped comparison is a fresh node.
func flipGroupIDComparisons(e ast.Expr) ast.Expr {
	ex, ok := e.(*ast.Binary)
	if !ok || !ex.Op.IsComparison() {
		return e
	}
	if !containsGroupID(ex.L) && !containsGroupID(ex.R) {
		return e
	}
	cp := *ex
	switch ex.Op {
	case ast.LT:
		cp.Op = ast.GE
	case ast.GE:
		cp.Op = ast.LT
	case ast.LE:
		cp.Op = ast.GT
	case ast.GT:
		cp.Op = ast.LE
	case ast.EQ:
		cp.Op = ast.NE
	case ast.NE:
		cp.Op = ast.EQ
	}
	return &cp
}

func containsGroupID(e ast.Expr) bool {
	found := false
	inspectExpr(e, func(x ast.Expr) {
		if c, ok := x.(*ast.Call); ok && isGroupIDBuiltin(c.Name) {
			found = true
		}
	})
	return found
}

func isGroupIDBuiltin(name string) bool {
	return name == "get_group_id" || name == "get_linear_group_id"
}
