package sema

import (
	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
)

// Predefined constants visible to every kernel (the barrier fence flags).
var predefined = map[string]uint64{
	"CLK_LOCAL_MEM_FENCE":  1,
	"CLK_GLOBAL_MEM_FENCE": 2,
}

// checkExpr type-checks an expression and returns a freshly built,
// annotated node (vector member accesses become swizzles). The input node
// is never written to; already-typed literals are shared as-is.
func (c *checker) checkExpr(e ast.Expr) (ast.Expr, error) {
	switch ex := e.(type) {
	case *ast.IntLit:
		if ex.Type() != nil {
			return ex, nil // immutable once typed; share with the input
		}
		nl := grab(&c.a.intLits)
		nl.Val = ex.Val
		nl.SetType(cltypes.TInt)
		return nl, nil

	case *ast.VarRef:
		if s := c.scope.lookup(ex.Name); s != nil {
			nv := grab(&c.a.varRefs)
			nv.Name = ex.Name
			nv.SetType(s.typ)
			return nv, nil
		}
		if _, ok := predefined[ex.Name]; ok {
			nv := grab(&c.a.varRefs)
			nv.Name = ex.Name
			nv.SetType(cltypes.TUInt)
			return nv, nil
		}
		return nil, c.errf("use of undeclared identifier %q", ex.Name)

	case *ast.Unary:
		return c.checkUnary(ex)

	case *ast.Binary:
		return c.checkBinary(ex)

	case *ast.AssignExpr:
		return c.checkAssign(ex)

	case *ast.Cond:
		cond, err := c.checkScalarCond(ex.C)
		if err != nil {
			return nil, err
		}
		t, err := c.checkExpr(ex.T)
		if err != nil {
			return nil, err
		}
		f, err := c.checkExpr(ex.F)
		if err != nil {
			return nil, err
		}
		rt, err := c.commonType(t.Type(), f.Type())
		if err != nil {
			return nil, err
		}
		nc := grab(&c.a.conds)
		nc.C, nc.T, nc.F = cond, t, f
		nc.SetType(rt)
		return nc, nil

	case *ast.Call:
		return c.checkCall(ex)

	case *ast.Index:
		base, err := c.checkExpr(ex.Base)
		if err != nil {
			return nil, err
		}
		idx, err := c.checkExpr(ex.Idx)
		if err != nil {
			return nil, err
		}
		if !cltypes.IsScalarInt(idx.Type()) {
			return nil, c.errf("array subscript must be an integer, found %s", idx.Type())
		}
		ni := grab(&c.a.indexes)
		ni.Base, ni.Idx = base, idx
		switch bt := base.Type().(type) {
		case *cltypes.Array:
			ni.SetType(bt.Elem)
		case *cltypes.Pointer:
			ni.SetType(bt.Elem)
		default:
			return nil, c.errf("subscripted value is not an array or pointer (%s)", base.Type())
		}
		return ni, nil

	case *ast.Member:
		return c.checkMember(ex)

	case *ast.Swizzle:
		base, err := c.checkExpr(ex.Base)
		if err != nil {
			return nil, err
		}
		sw := grab(&c.a.swizzles)
		sw.Base, sw.Sel = base, ex.Sel
		return c.typeSwizzle(sw)

	case *ast.VecLit:
		nv := &ast.VecLit{VT: ex.VT, Elems: grabSlice(&c.a.exprs, len(ex.Elems))}
		total := 0
		for i, el := range ex.Elems {
			ce, err := c.checkExpr(el)
			if err != nil {
				return nil, err
			}
			nv.Elems[i] = ce
			switch et := ce.Type().(type) {
			case *cltypes.Scalar:
				total++
			case *cltypes.Vector:
				if !et.Elem.Equal(ex.VT.Elem) {
					return nil, c.errf("vector literal element type %s does not match %s", et, ex.VT)
				}
				total += et.Len
			default:
				return nil, c.errf("invalid vector literal element type %s", ce.Type())
			}
		}
		// OpenCL: a single scalar element splats; otherwise the element
		// count must match exactly.
		if !(len(ex.Elems) == 1 && total == 1) && total != ex.VT.Len {
			return nil, c.errf("vector literal for %s has %d components", ex.VT, total)
		}
		nv.SetType(ex.VT)
		return nv, nil

	case *ast.Cast:
		x, err := c.checkExpr(ex.X)
		if err != nil {
			return nil, err
		}
		from, to := x.Type(), ex.To
		nc := grab(&c.a.casts)
		nc.To, nc.X = to, x
		if _, ok := to.(*cltypes.Vector); ok {
			// OpenCL prohibits vector-to-vector casts between distinct
			// types (paper §4.1); a scalar cast to a vector splats.
			if vf, isVec := from.(*cltypes.Vector); isVec {
				if !vf.Equal(to) {
					return nil, c.errf("invalid cast from %s to %s (use convert_%s)", from, to, to)
				}
			} else if !cltypes.IsScalarInt(from) {
				return nil, c.errf("invalid cast from %s to %s", from, to)
			}
			nc.SetType(to)
			return nc, nil
		}
		if _, ok := to.(*cltypes.Scalar); ok {
			if !cltypes.IsScalarInt(from) {
				return nil, c.errf("invalid cast from %s to %s", from, to)
			}
			nc.SetType(to)
			return nc, nil
		}
		if pt, ok := to.(*cltypes.Pointer); ok {
			if _, ok := from.(*cltypes.Pointer); ok {
				nc.SetType(pt)
				return nc, nil
			}
			if lit, ok := x.(*ast.IntLit); ok && lit.Val == 0 {
				nc.SetType(pt)
				return nc, nil
			}
		}
		return nil, c.errf("invalid cast from %s to %s", from, to)

	case *ast.InitList:
		return nil, c.errf("braced initializer used outside declaration")
	}
	return nil, c.errf("unknown expression %T", e)
}

func (c *checker) checkUnary(ex *ast.Unary) (ast.Expr, error) {
	x, err := c.checkExpr(ex.X)
	if err != nil {
		return nil, err
	}
	nu := grab(&c.a.unaries)
	nu.Op, nu.X = ex.Op, x
	t := x.Type()
	switch ex.Op {
	case ast.Neg, ast.Pos, ast.BitNot:
		switch tt := t.(type) {
		case *cltypes.Scalar:
			nu.SetType(cltypes.Promote(tt))
			return nu, nil
		case *cltypes.Vector:
			nu.SetType(tt)
			return nu, nil
		}
		return nil, c.errf("invalid operand %s to unary %s", t, ex.Op)
	case ast.LogNot:
		switch tt := t.(type) {
		case *cltypes.Scalar:
			nu.SetType(cltypes.TInt)
			return nu, nil
		case *cltypes.Vector:
			if c.defects.Has(bugs.FEVectorLogicalReject) {
				return nil, c.errf("error: logical operator ! not supported on vector type %s", tt)
			}
			nu.SetType(signedVec(tt))
			return nu, nil
		case *cltypes.Pointer:
			nu.SetType(cltypes.TInt)
			return nu, nil
		}
		return nil, c.errf("invalid operand %s to unary !", t)
	case ast.AddrOf:
		if !c.isLvalue(x) {
			return nil, c.errf("cannot take the address of an rvalue")
		}
		nu.SetType(&cltypes.Pointer{Elem: t, Space: c.exprSpace(x)})
		return nu, nil
	case ast.Deref:
		pt, ok := t.(*cltypes.Pointer)
		if !ok {
			return nil, c.errf("cannot dereference non-pointer type %s", t)
		}
		nu.SetType(pt.Elem)
		return nu, nil
	case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
		if err := c.checkAssignable(x); err != nil {
			return nil, err
		}
		if !cltypes.IsScalarInt(t) {
			return nil, c.errf("invalid operand %s to %s", t, ex.Op)
		}
		nu.SetType(t)
		return nu, nil
	}
	return nil, c.errf("unknown unary operator")
}

func (c *checker) checkBinary(ex *ast.Binary) (ast.Expr, error) {
	l, err := c.checkExpr(ex.L)
	if err != nil {
		return nil, err
	}
	r, err := c.checkExpr(ex.R)
	if err != nil {
		return nil, err
	}
	nb := grab(&c.a.binaries)
	nb.Op, nb.L, nb.R = ex.Op, l, r
	lt, rt := l.Type(), r.Type()

	if ex.Op == ast.Comma {
		c.info.HasComma = true
		nb.SetType(rt)
		return nb, nil
	}

	// Pointer equality comparisons.
	if _, lp := lt.(*cltypes.Pointer); lp {
		if ex.Op == ast.EQ || ex.Op == ast.NE {
			if _, rp := rt.(*cltypes.Pointer); rp {
				nb.SetType(cltypes.TInt)
				return nb, nil
			}
			if lit, ok := r.(*ast.IntLit); ok && lit.Val == 0 {
				nb.SetType(cltypes.TInt)
				return nb, nil
			}
		}
		return nil, c.errf("invalid pointer operands to binary %s", ex.Op)
	}

	ls, lIsScalar := lt.(*cltypes.Scalar)
	rs, rIsScalar := rt.(*cltypes.Scalar)
	lv, lIsVec := lt.(*cltypes.Vector)
	rv, rIsVec := rt.(*cltypes.Vector)

	// The Intel Xeon front-end defect: reject mixing size_t with signed
	// scalar types (§6 "Build failures", config 15).
	if c.defects.Has(bugs.FEIntSizeTMix) && lIsScalar && rIsScalar {
		if (ls.K == cltypes.KindSizeT && rs.Signed) || (rs.K == cltypes.KindSizeT && ls.Signed) {
			return nil, c.errf("error: invalid operands to binary expression ('%s' and '%s')", lt, rt)
		}
	}

	switch {
	case lIsScalar && rIsScalar:
		if ex.Op.IsComparison() || ex.Op.IsLogical() {
			nb.SetType(cltypes.TInt)
			return nb, nil
		}
		if ex.Op == ast.Shl || ex.Op == ast.Shr {
			nb.SetType(cltypes.Promote(ls))
			return nb, nil
		}
		nb.SetType(cltypes.UsualArith(ls, rs))
		return nb, nil
	case lIsVec && rIsVec:
		if !lv.Equal(rv) {
			return nil, c.errf("invalid operands to binary %s (%s and %s)", ex.Op, lt, rt)
		}
		return c.vecBinResult(nb, lv)
	case lIsVec && rIsScalar:
		return c.vecBinResult(nb, lv)
	case lIsScalar && rIsVec:
		return c.vecBinResult(nb, rv)
	}
	return nil, c.errf("invalid operands to binary %s (%s and %s)", ex.Op, lt, rt)
}

// vecBinResult types a component-wise vector operation (on the freshly
// built node): comparisons and logical operators yield a signed vector
// mask of the same shape; other operators yield the vector type itself.
func (c *checker) vecBinResult(ex *ast.Binary, v *cltypes.Vector) (ast.Expr, error) {
	if ex.Op.IsLogical() {
		c.info.UsesVector = true
		if c.defects.Has(bugs.FEVectorLogicalReject) {
			return nil, c.errf("error: logical operator %s not supported on vector type %s", ex.Op, v)
		}
		ex.SetType(signedVec(v))
		return ex, nil
	}
	c.info.UsesVector = true
	if ex.Op.IsComparison() {
		ex.SetType(signedVec(v))
		return ex, nil
	}
	ex.SetType(v)
	return ex, nil
}

// signedVec returns the signed vector type with the same shape as v (the
// OpenCL result type of vector comparisons).
func signedVec(v *cltypes.Vector) *cltypes.Vector {
	var e *cltypes.Scalar
	switch v.Elem.Bits {
	case 8:
		e = cltypes.TChar
	case 16:
		e = cltypes.TShort
	case 32:
		e = cltypes.TInt
	default:
		e = cltypes.TLong
	}
	return cltypes.VecOf(e, v.Len)
}

func (c *checker) checkAssign(ex *ast.AssignExpr) (ast.Expr, error) {
	lhs, err := c.checkExpr(ex.LHS)
	if err != nil {
		return nil, err
	}
	if err := c.checkAssignable(lhs); err != nil {
		return nil, err
	}
	rhs, err := c.checkExpr(ex.RHS)
	if err != nil {
		return nil, err
	}
	na := grab(&c.a.assigns)
	na.Op, na.LHS, na.RHS = ex.Op, lhs, rhs
	lt, rt := lhs.Type(), rhs.Type()
	if ex.Op != ast.Assign {
		// Compound assignment requires an arithmetic LHS.
		switch lt.(type) {
		case *cltypes.Scalar, *cltypes.Vector:
		default:
			return nil, c.errf("invalid operand %s to compound assignment", lt)
		}
		if vt, ok := lt.(*cltypes.Vector); ok {
			if rvt, ok := rt.(*cltypes.Vector); ok && !vt.Equal(rvt) {
				return nil, c.errf("invalid operands to compound assignment (%s and %s)", lt, rt)
			}
			if !cltypes.IsScalarInt(rt) && !cltypes.IsVector(rt) {
				return nil, c.errf("invalid operands to compound assignment (%s and %s)", lt, rt)
			}
		} else if !cltypes.IsScalarInt(rt) {
			return nil, c.errf("invalid operands to compound assignment (%s and %s)", lt, rt)
		}
		// The size_t mixing defect also fires on compound assignments.
		if c.defects.Has(bugs.FEIntSizeTMix) {
			if ls, ok := lt.(*cltypes.Scalar); ok {
				if rs, ok := rt.(*cltypes.Scalar); ok {
					if (ls.K == cltypes.KindSizeT && rs.Signed) || (rs.K == cltypes.KindSizeT && ls.Signed) {
						return nil, c.errf("error: invalid operands to binary expression ('%s' and '%s')", lt, rt)
					}
				}
			}
		}
	} else if !c.convertibleTo(rt, lt) {
		return nil, c.errf("cannot assign %s to %s", rt, lt)
	}
	na.SetType(lt)
	return na, nil
}

// checkAssignable verifies that e is a modifiable lvalue.
func (c *checker) checkAssignable(e ast.Expr) error {
	if !c.isLvalue(e) {
		return c.errf("expression is not assignable")
	}
	if c.isConstLvalue(e) {
		return c.errf("cannot assign to a const or constant-space object")
	}
	return nil
}

func (c *checker) isLvalue(e ast.Expr) bool {
	switch ex := e.(type) {
	case *ast.VarRef:
		return c.scope.lookup(ex.Name) != nil
	case *ast.Unary:
		return ex.Op == ast.Deref
	case *ast.Index:
		return true
	case *ast.Member:
		return true
	case *ast.Swizzle:
		return len(cltypes.SwizzleIndices(ex.Sel)) == 1 && c.isLvalue(ex.Base)
	}
	return false
}

func (c *checker) isConstLvalue(e ast.Expr) bool {
	switch ex := e.(type) {
	case *ast.VarRef:
		if s := c.scope.lookup(ex.Name); s != nil {
			return s.isConst || s.space == cltypes.Constant
		}
		return true
	case *ast.Unary:
		if ex.Op == ast.Deref {
			if pt, ok := ex.X.Type().(*cltypes.Pointer); ok {
				return pt.Space == cltypes.Constant
			}
		}
		return false
	case *ast.Index:
		return c.isConstLvalue(ex.Base)
	case *ast.Member:
		if ex.Arrow {
			if pt, ok := ex.Base.Type().(*cltypes.Pointer); ok {
				return pt.Space == cltypes.Constant
			}
			return false
		}
		return c.isConstLvalue(ex.Base)
	case *ast.Swizzle:
		return c.isConstLvalue(ex.Base)
	}
	return false
}

// exprSpace computes the address space of an lvalue, for typing AddrOf.
func (c *checker) exprSpace(e ast.Expr) cltypes.AddrSpace {
	switch ex := e.(type) {
	case *ast.VarRef:
		if s := c.scope.lookup(ex.Name); s != nil {
			return s.space
		}
	case *ast.Unary:
		if ex.Op == ast.Deref {
			if pt, ok := ex.X.Type().(*cltypes.Pointer); ok {
				return pt.Space
			}
		}
	case *ast.Index:
		if pt, ok := ex.Base.Type().(*cltypes.Pointer); ok {
			return pt.Space
		}
		return c.exprSpace(ex.Base)
	case *ast.Member:
		if ex.Arrow {
			if pt, ok := ex.Base.Type().(*cltypes.Pointer); ok {
				return pt.Space
			}
			return cltypes.Private
		}
		return c.exprSpace(ex.Base)
	}
	return cltypes.Private
}

// checkMember types a member access; on vector bases it rewrites the node
// into a swizzle.
func (c *checker) checkMember(ex *ast.Member) (ast.Expr, error) {
	base, err := c.checkExpr(ex.Base)
	if err != nil {
		return nil, err
	}
	bt := base.Type()
	if ex.Arrow {
		pt, ok := bt.(*cltypes.Pointer)
		if !ok {
			return nil, c.errf("-> applied to non-pointer type %s", bt)
		}
		bt = pt.Elem
	}
	switch t := bt.(type) {
	case *cltypes.StructT:
		i := t.FieldIndex(ex.Name)
		if i < 0 {
			return nil, c.errf("no member %q in %s", ex.Name, t)
		}
		nm := grab(&c.a.members)
		nm.Base, nm.Name, nm.Arrow, nm.FieldIdx = base, ex.Name, ex.Arrow, i+1
		nm.SetType(t.Fields[i].Type)
		if t.Fields[i].Volatile {
			c.info.HasVolatile = true
		}
		return nm, nil
	case *cltypes.Vector:
		if ex.Arrow {
			return nil, c.errf("-> applied to vector type")
		}
		sw := grab(&c.a.swizzles)
		sw.Base, sw.Sel = base, ex.Name
		return c.typeSwizzle(sw)
	}
	return nil, c.errf("member access on non-aggregate type %s", bt)
}

// typeSwizzle annotates a freshly built swizzle node (its base is already
// checked; the node is owned by the checker, so writing its type is safe).
func (c *checker) typeSwizzle(sw *ast.Swizzle) (ast.Expr, error) {
	vt, ok := sw.Base.Type().(*cltypes.Vector)
	if !ok {
		return nil, c.errf("swizzle applied to non-vector type %s", sw.Base.Type())
	}
	idx := cltypes.SwizzleIndices(sw.Sel)
	if idx == nil {
		return nil, c.errf("invalid vector component selector %q", sw.Sel)
	}
	for _, i := range idx {
		if i >= vt.Len {
			return nil, c.errf("component %d out of range for %s", i, vt)
		}
	}
	c.info.UsesVector = true
	switch len(idx) {
	case 1:
		sw.SetType(vt.Elem)
	case 2, 4, 8, 16:
		sw.SetType(cltypes.VecOf(vt.Elem, len(idx)))
	default:
		return nil, c.errf("invalid swizzle length %d", len(idx))
	}
	return sw, nil
}

// commonType computes the ternary result type.
func (c *checker) commonType(a, b cltypes.Type) (cltypes.Type, error) {
	if a.Equal(b) {
		return a, nil
	}
	as, aok := a.(*cltypes.Scalar)
	bs, bok := b.(*cltypes.Scalar)
	if aok && bok {
		return cltypes.UsualArith(as, bs), nil
	}
	return nil, c.errf("incompatible operand types %s and %s in conditional", a, b)
}

// walkStmt calls fn for s and every statement nested within it. It never
// writes to the tree.
func walkStmt(s ast.Stmt, fn func(ast.Stmt)) {
	if s == nil {
		return
	}
	fn(s)
	switch st := s.(type) {
	case *ast.Block:
		for _, inner := range st.Stmts {
			walkStmt(inner, fn)
		}
	case *ast.If:
		walkStmt(st.Then, fn)
		walkStmt(st.Else, fn)
	case *ast.For:
		walkStmt(st.Init, fn)
		walkStmt(st.Body, fn)
	case *ast.While:
		walkStmt(st.Body, fn)
	case *ast.DoWhile:
		walkStmt(st.Body, fn)
	}
}
