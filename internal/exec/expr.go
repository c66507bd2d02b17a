package exec

import (
	"fmt"

	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
)

// evalExpr evaluates e into *out. Results are always written with a full
// struct assignment, so callers may reuse one Value as scratch across many
// calls (the out-parameter style keeps the 96-byte Value struct from being
// copied once per level of the recursive evaluator — the dominant cost of
// the tree-walking interpreter before this shape was adopted).
func (t *thread) evalExpr(e ast.Expr, out *Value) error {
	if err := t.step(); err != nil {
		return err
	}
	switch ex := e.(type) {
	case *ast.IntLit:
		st, ok := ex.Type().(*cltypes.Scalar)
		if !ok {
			st = cltypes.TInt
		}
		*out = scalarValue(ex.Val, st)
		return nil

	case *ast.VarRef:
		if c := t.lookup(ex.Name); c != nil {
			if t.m.opts.CheckRaces {
				if err := t.noteAccess(c, false, false); err != nil {
					return err
				}
			}
			return loadCell(c, out)
		}
		if v, ok := predefinedConst(ex.Name); ok {
			*out = scalarValue(v, cltypes.TUInt)
			return nil
		}
		return fmt.Errorf("exec: undefined variable %q", ex.Name)

	case *ast.Unary:
		return t.evalUnary(ex, out)

	case *ast.Binary:
		return t.evalBinary(ex, out)

	case *ast.AssignExpr:
		return t.evalAssign(ex, out)

	case *ast.Cond:
		if err := t.evalExpr(ex.C, out); err != nil {
			return err
		}
		var branch ast.Expr
		if out.isTrue() {
			branch = ex.T
		} else {
			branch = ex.F
		}
		if err := t.evalExpr(branch, out); err != nil {
			return err
		}
		if rt, ok := ex.Type().(*cltypes.Scalar); ok {
			if _, isS := out.T.(*cltypes.Scalar); isS {
				*out = convertScalar(out, rt)
			}
		}
		return nil

	case *ast.Call:
		return t.evalCall(ex, out)

	case *ast.Index:
		lv, err := t.evalLV(ex)
		if err != nil {
			return err
		}
		if t.m.opts.CheckRaces {
			if err := t.noteLVAccess(lv, false); err != nil {
				return err
			}
		}
		return lv.load(out)

	case *ast.Member:
		lv, err := t.evalLV(ex)
		if err != nil {
			return err
		}
		if t.m.opts.CheckRaces {
			if err := t.noteLVAccess(lv, false); err != nil {
				return err
			}
		}
		return lv.load(out)

	case *ast.Swizzle:
		if err := t.evalExpr(ex.Base, out); err != nil {
			return err
		}
		vt, ok := out.T.(*cltypes.Vector)
		if !ok {
			return fmt.Errorf("exec: swizzle of non-vector %s", out.T)
		}
		idx := cltypes.SwizzleIndices(ex.Sel)
		if len(idx) == 1 {
			*out = scalarValue(out.Vec[idx[0]], vt.Elem)
			return nil
		}
		sw := make([]uint64, len(idx))
		for i, j := range idx {
			sw[i] = out.Vec[j]
		}
		*out = Value{T: cltypes.VecOf(vt.Elem, len(idx)), Vec: sw}
		return nil

	case *ast.VecLit:
		var comps []uint64
		var el Value
		for _, elem := range ex.Elems {
			if err := t.evalExpr(elem, &el); err != nil {
				return err
			}
			switch vt := el.T.(type) {
			case *cltypes.Scalar:
				comps = append(comps, cltypes.Convert(el.Scalar, vt, ex.VT.Elem))
			case *cltypes.Vector:
				comps = append(comps, el.Vec...)
			default:
				return fmt.Errorf("exec: bad vector literal element %s", el.T)
			}
		}
		if len(comps) == 1 && ex.VT.Len > 1 {
			splat := make([]uint64, ex.VT.Len)
			for i := range splat {
				splat[i] = comps[0]
			}
			comps = splat
		}
		if len(comps) != ex.VT.Len {
			return fmt.Errorf("exec: vector literal arity mismatch")
		}
		*out = Value{T: ex.VT, Vec: comps}
		return nil

	case *ast.Cast:
		if err := t.evalExpr(ex.X, out); err != nil {
			return err
		}
		switch to := ex.To.(type) {
		case *cltypes.Scalar:
			*out = convertScalar(out, to)
			return nil
		case *cltypes.Vector:
			if vv, ok := out.T.(*cltypes.Vector); ok && vv.Equal(to) {
				return nil
			}
			if vs, ok := out.T.(*cltypes.Scalar); ok {
				splat := make([]uint64, to.Len)
				c := cltypes.Convert(out.Scalar, vs, to.Elem)
				for i := range splat {
					splat[i] = c
				}
				*out = Value{T: to, Vec: splat}
				return nil
			}
			return fmt.Errorf("exec: bad vector cast from %s", out.T)
		case *cltypes.Pointer:
			if _, ok := out.T.(*cltypes.Pointer); ok {
				*out = Value{T: to, Ptr: out.Ptr}
				return nil
			}
			*out = Value{T: to} // null constant
			return nil
		}
		return fmt.Errorf("exec: bad cast to %s", ex.To)
	}
	return fmt.Errorf("exec: unknown expression %T", e)
}

// noteLVAccess records an lvalue access (cell or flat buffer word) for the
// race checker.
func (t *thread) noteLVAccess(lv lval, write bool) error {
	if w := lv.wordAddr(); w != nil {
		return t.noteWordAccess(w, write, false)
	}
	if lv.c != nil {
		return t.noteAccess(lv.c, write, false)
	}
	return nil
}

func predefinedConst(name string) (uint64, bool) {
	switch name {
	case "CLK_LOCAL_MEM_FENCE":
		return 1, true
	case "CLK_GLOBAL_MEM_FENCE":
		return 2, true
	}
	return 0, false
}

func (t *thread) evalUnary(ex *ast.Unary, out *Value) error {
	switch ex.Op {
	case ast.AddrOf:
		p, err := t.lvPtr(ex.X)
		if err != nil {
			return err
		}
		*out = Value{T: ex.Type(), Ptr: p}
		return nil
	case ast.Deref:
		if err := t.evalExpr(ex.X, out); err != nil {
			return err
		}
		lv, err := t.ptrLV(out.Ptr, "null or dangling pointer dereference")
		if err != nil {
			return err
		}
		if t.m.opts.CheckRaces {
			if err := t.noteLVAccess(lv, false); err != nil {
				return err
			}
		}
		return lv.load(out)
	case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
		lv, err := t.evalLV(ex.X)
		if err != nil {
			return err
		}
		if t.m.opts.CheckRaces {
			if err := t.noteLVAccess(lv, true); err != nil {
				return err
			}
		}
		if err := lv.load(out); err != nil {
			return err
		}
		st, ok := out.T.(*cltypes.Scalar)
		if !ok {
			return fmt.Errorf("exec: ++/-- on %s", out.T)
		}
		old := out.Scalar
		var nv uint64
		if ex.Op == ast.PreInc || ex.Op == ast.PostInc {
			nv = cltypes.Add(old, 1, st)
		} else {
			nv = cltypes.Sub(old, 1, st)
		}
		*out = scalarValue(nv, st)
		if err := lv.store(out); err != nil {
			return err
		}
		if ex.Op == ast.PostInc || ex.Op == ast.PostDec {
			*out = scalarValue(old, st)
		}
		return nil
	}
	// Value-level unary operators.
	if err := t.evalExpr(ex.X, out); err != nil {
		return err
	}
	switch vt := out.T.(type) {
	case *cltypes.Scalar:
		switch ex.Op {
		case ast.Neg:
			rt := ex.Type().(*cltypes.Scalar)
			*out = scalarValue(cltypes.Neg(cltypes.Convert(out.Scalar, vt, rt), rt), rt)
			return nil
		case ast.Pos:
			rt := ex.Type().(*cltypes.Scalar)
			*out = convertScalar(out, rt)
			return nil
		case ast.BitNot:
			rt := ex.Type().(*cltypes.Scalar)
			*out = scalarValue(cltypes.Not(cltypes.Convert(out.Scalar, vt, rt), rt), rt)
			return nil
		case ast.LogNot:
			*out = boolValue(!out.isTrue())
			return nil
		}
	case *cltypes.Vector:
		res := make([]uint64, vt.Len)
		for i, c := range out.Vec {
			switch ex.Op {
			case ast.Neg:
				res[i] = cltypes.Neg(c, vt.Elem)
			case ast.Pos:
				res[i] = c
			case ast.BitNot:
				res[i] = cltypes.Not(c, vt.Elem)
			case ast.LogNot:
				if cltypes.Trunc(c, vt.Elem) == 0 {
					res[i] = mask(vt.Elem) // component-wise !: -1 for true
				} else {
					res[i] = 0
				}
			}
		}
		rt := ex.Type().(*cltypes.Vector)
		*out = Value{T: rt, Vec: res}
		return nil
	case *cltypes.Pointer:
		if ex.Op == ast.LogNot {
			*out = boolValue(out.Ptr.IsNull())
			return nil
		}
	}
	return fmt.Errorf("exec: invalid unary %s on %s", ex.Op, out.T)
}

// mask returns the all-ones pattern of t (the OpenCL "true" for vector
// comparison results).
func mask(t *cltypes.Scalar) uint64 { return cltypes.Trunc(^uint64(0), t) }

func (t *thread) evalBinary(ex *ast.Binary, out *Value) error {
	if ex.Op == ast.Comma {
		if err := t.evalExpr(ex.L, out); err != nil {
			return err
		}
		if err := t.evalExpr(ex.R, out); err != nil {
			return err
		}
		// Figure 2(f): Oclgrind mishandled the comma operator; the model
		// makes the pair evaluate to zero instead of the right operand.
		if t.m.defect(bugs.WCComma) {
			if rt, ok := out.T.(*cltypes.Scalar); ok {
				*out = scalarValue(0, rt)
			}
		}
		return nil
	}
	if ex.Op == ast.LAnd || ex.Op == ast.LOr {
		if _, ok := ex.Type().(*cltypes.Vector); !ok {
			// Scalar logical operators short-circuit.
			if err := t.evalExpr(ex.L, out); err != nil {
				return err
			}
			if ex.Op == ast.LAnd && !out.isTrue() {
				*out = boolValue(false)
				return nil
			}
			if ex.Op == ast.LOr && out.isTrue() {
				*out = boolValue(true)
				return nil
			}
			if err := t.evalExpr(ex.R, out); err != nil {
				return err
			}
			*out = boolValue(out.isTrue())
			return nil
		}
	}
	var lv, rv Value
	if err := t.evalExpr(ex.L, &lv); err != nil {
		return err
	}
	if err := t.evalExpr(ex.R, &rv); err != nil {
		return err
	}
	// Pointer comparisons.
	if _, ok := lv.T.(*cltypes.Pointer); ok {
		eq := samePtrTarget(lv.Ptr, rv.Ptr)
		if ex.Op == ast.EQ {
			*out = boolValue(eq)
		} else {
			*out = boolValue(!eq)
		}
		return nil
	}
	return t.applyBinary(ex.Op, &lv, &rv, ex.Type(), out)
}

// applyBinary computes a (possibly vector) binary operation with the result
// type determined by sema. out must not alias lv or rv.
func (t *thread) applyBinary(op ast.BinOp, lv, rv *Value, rt cltypes.Type, out *Value) error {
	if vt, ok := rt.(*cltypes.Vector); ok {
		lc, err := vecComponents(lv, vt)
		if err != nil {
			return err
		}
		rc, err := vecComponents(rv, vt)
		if err != nil {
			return err
		}
		// The element type on which the operation is computed: for
		// comparisons the result is a signed mask but the comparison
		// itself happens at the operand element type (taken from whichever
		// operand is the vector — signedness matters).
		opElem := vt.Elem
		if op.IsComparison() || op.IsLogical() {
			if ovt, ok := lv.T.(*cltypes.Vector); ok {
				opElem = ovt.Elem
			} else if ovt, ok := rv.T.(*cltypes.Vector); ok {
				opElem = ovt.Elem
			}
		}
		res := make([]uint64, vt.Len)
		for i := range res {
			r, err := scalarBinOp(op, lc[i], rc[i], opElem, opElem)
			if err != nil {
				return err
			}
			if op.IsComparison() || op.IsLogical() {
				if r != 0 {
					res[i] = mask(vt.Elem)
				}
			} else {
				res[i] = cltypes.Trunc(r, vt.Elem)
			}
		}
		*out = Value{T: vt, Vec: res}
		return nil
	}
	st, ok := rt.(*cltypes.Scalar)
	if !ok {
		return fmt.Errorf("exec: bad binary result type %s", rt)
	}
	ls, lok := lv.T.(*cltypes.Scalar)
	rs, rok := rv.T.(*cltypes.Scalar)
	if !lok || !rok {
		return fmt.Errorf("exec: bad binary operands %s, %s", lv.T, rv.T)
	}
	if op.IsComparison() {
		ct := cltypes.UsualArith(ls, rs)
		a := cltypes.Convert(lv.Scalar, ls, ct)
		b := cltypes.Convert(rv.Scalar, rs, ct)
		r, err := scalarBinOp(op, a, b, ct, ct)
		if err != nil {
			return err
		}
		*out = scalarValue(r, st)
		return nil
	}
	if op == ast.Shl || op == ast.Shr {
		pl := cltypes.Promote(ls)
		a := cltypes.Convert(lv.Scalar, ls, pl)
		r, err := shiftOp(op, a, rv.Scalar, pl, rs)
		if err != nil {
			return err
		}
		*out = scalarValue(r, st)
		return nil
	}
	a := cltypes.Convert(lv.Scalar, ls, st)
	b := cltypes.Convert(rv.Scalar, rs, st)
	r, err := scalarBinOp(op, a, b, st, st)
	if err != nil {
		return err
	}
	*out = scalarValue(r, st)
	return nil
}

// vecComponents extracts components from a vector or splats a scalar.
func vecComponents(v *Value, vt *cltypes.Vector) ([]uint64, error) {
	switch t := v.T.(type) {
	case *cltypes.Vector:
		return v.Vec, nil
	case *cltypes.Scalar:
		out := make([]uint64, vt.Len)
		c := cltypes.Convert(v.Scalar, t, vt.Elem)
		for i := range out {
			out[i] = c
		}
		return out, nil
	}
	return nil, fmt.Errorf("exec: cannot widen %s to %s", v.T, vt)
}

// scalarBinOp computes op on two values already converted to type t.
// Division and modulo by values that would be undefined in C are total here
// with safe-math fallback semantics: the generator only emits them through
// safe wrappers, and the benchmarks guard their divisors, so the fallback
// never changes the meaning of a well-defined program.
func scalarBinOp(op ast.BinOp, a, b uint64, t, bt *cltypes.Scalar) (uint64, error) {
	switch op {
	case ast.Add:
		return cltypes.Add(a, b, t), nil
	case ast.Sub:
		return cltypes.Sub(a, b, t), nil
	case ast.Mul:
		return cltypes.Mul(a, b, t), nil
	case ast.Div:
		return cltypes.Div(a, b, t), nil
	case ast.Mod:
		return cltypes.Mod(a, b, t), nil
	case ast.And:
		return cltypes.And(a, b, t), nil
	case ast.Or:
		return cltypes.Or(a, b, t), nil
	case ast.Xor:
		return cltypes.Xor(a, b, t), nil
	case ast.Shl:
		return cltypes.Shl(a, b, t, bt), nil
	case ast.Shr:
		return cltypes.Shr(a, b, t, bt), nil
	case ast.EQ:
		return cltypes.CmpEQ(a, b, t), nil
	case ast.NE:
		return 1 - cltypes.CmpEQ(a, b, t), nil
	case ast.LT:
		return cltypes.CmpLT(a, b, t), nil
	case ast.LE:
		return cltypes.CmpLE(a, b, t), nil
	case ast.GT:
		return cltypes.CmpLT(b, a, t), nil
	case ast.GE:
		return cltypes.CmpLE(b, a, t), nil
	case ast.LAnd:
		if cltypes.Trunc(a, t) != 0 && cltypes.Trunc(b, t) != 0 {
			return 1, nil
		}
		return 0, nil
	case ast.LOr:
		if cltypes.Trunc(a, t) != 0 || cltypes.Trunc(b, t) != 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("exec: unknown binary operator %v", op)
}

func shiftOp(op ast.BinOp, a, b uint64, t, bt *cltypes.Scalar) (uint64, error) {
	if op == ast.Shl {
		return cltypes.Shl(a, b, t, bt), nil
	}
	return cltypes.Shr(a, b, t, bt), nil
}

// evalAssign resolves the destination, computes the stored value, and
// applies the store plus its defect models. out == nil marks statement
// position, where the expression's value is discarded and the post-store
// reload (which exists only to produce that value) is skipped.
func (t *thread) evalAssign(ex *ast.AssignExpr, out *Value) error {
	lv, err := t.evalLV(ex.LHS)
	if err != nil {
		return err
	}
	var rv Value
	if err := t.evalExpr(ex.RHS, &rv); err != nil {
		return err
	}
	if ex.Op != ast.Assign {
		// Compound assignment folds the destination's current value in.
		var old, combined Value
		if err := lv.load(&old); err != nil {
			return err
		}
		if err := t.applyBinary(ex.Op.BinOp(), &old, &rv, compoundType(lv.typ(), rv.T), &combined); err != nil {
			return err
		}
		rv = combined
	}
	// Defect models that drop stores or crash (Figures 1(d) and 2(c)).
	drop, err := t.defectiveStore(ex)
	if err != nil {
		return err
	}
	if drop {
		if out != nil {
			*out = rv
		}
		return nil
	}
	if t.m.opts.CheckRaces {
		if err := t.noteLVAccess(lv, true); err != nil {
			return err
		}
	}
	if err := lv.store(&rv); err != nil {
		return err
	}
	// Struct-copy defect models (Figures 1(b) and the §6 struct problems):
	// corrupt the destination after an otherwise successful copy.
	if st, ok := lv.typ().(*cltypes.StructT); ok && !st.IsUnion && lv.c != nil {
		t.corruptStructCopy(lv.c, st)
	}
	if out == nil {
		return nil
	}
	return lv.load(out)
}

// compoundType computes the intermediate type of a compound assignment.
func compoundType(lt cltypes.Type, rt cltypes.Type) cltypes.Type {
	if vt, ok := lt.(*cltypes.Vector); ok {
		return vt
	}
	ls, lok := lt.(*cltypes.Scalar)
	rs, rok := rt.(*cltypes.Scalar)
	if lok && rok {
		return cltypes.UsualArith(ls, rs)
	}
	return lt
}

// defectiveStore implements the barrier-related store defect models.
// Stores of the exact Figure 2(c)/1(d) shapes (through a dereferenced
// pointer parameter, or an arrow member of a pointer parameter) trigger
// deterministically; the generated-kernel analogue (arrow-member stores in
// CLsmith code, which passes the globals struct by pointer everywhere) is
// hash-gated so that campaign rates match the paper's tables rather than
// firing on every barrier kernel.
func (t *thread) defectiveStore(ex *ast.AssignExpr) (bool, error) {
	if ex.Op != ast.Assign || t.depth == 0 || !t.barrierSeen {
		return false, nil
	}
	derefParam := false
	if u, ok := ex.LHS.(*ast.Unary); ok && u.Op == ast.Deref {
		if vr, ok := u.X.(*ast.VarRef); ok && t.isParam(vr.Name) {
			derefParam = true
		}
	}
	arrowParam := false
	if m, ok := ex.LHS.(*ast.Member); ok && m.Arrow {
		if vr, ok := m.Base.(*ast.VarRef); ok && t.isParam(vr.Name) {
			arrowParam = true
		}
	}
	return t.storeDefect(ex.Op, derefParam, arrowParam)
}

// storeDefect is the engine-shared tail of the store defect models: the
// tree walker derives the two syntactic trigger flags per store, the VM
// reads them from the lowered StoreInfo.
func (t *thread) storeDefect(op ast.AssignOp, derefParam, arrowParam bool) (bool, error) {
	if op != ast.Assign || t.depth == 0 || !t.barrierSeen {
		return false, nil
	}
	if !derefParam && !arrowParam {
		return false, nil
	}
	// Figure 1(d), config 17: stores through a pointer-to-struct parameter
	// are lost once a barrier has executed.
	if t.m.defect(bugs.WCStructPtrWriteBarrier) && arrowParam {
		return true, nil
	}
	if t.m.opts.HasFwdDecl {
		// Figure 2(c), configs 12-/13-: non-leader threads lose stores
		// through pointer parameters after a barrier.
		if t.m.defect(bugs.WCBarrierFwdDecl) && t.lidLinear() != 0 {
			if derefParam || t.m.hashGate(0xf2c, 8) {
				return true, nil
			}
		}
		// Figure 2(c), configs 14-/15-: the same trigger crashes with a
		// segmentation fault.
		if t.m.defect(bugs.CrashBarrierFwdDecl) {
			if derefParam || t.m.hashGate(0xf2d, 2) {
				return false, &CrashError{Msg: "segmentation fault in barrier-split store"}
			}
		}
	}
	return false, nil
}

// corruptStructCopy applies the struct-assignment defect models to a just-
// stored struct destination.
func (t *thread) corruptStructCopy(dst *Cell, st *cltypes.StructT) {
	// Figure 1(b), configs 10-/11-: with Nx == 1, a struct copy loses
	// array element 7.
	if t.m.defect(bugs.WCStructCopyNx1) && t.m.nd.Global[0] == 1 {
		for i, f := range st.Fields {
			if at, ok := f.Type.(*cltypes.Array); ok && at.Len > 7 {
				if _, ok := at.Elem.(*cltypes.Scalar); ok {
					dst.Kids[i].Kids[7].Val = 0
				}
			}
		}
	}
	// §6 struct problems (configs 7/8 and older drivers): hash-gated loss
	// of the last field of structs containing nested aggregates.
	if t.m.defect(bugs.WCStructDeep) && t.m.hashGate(0x57de, 3) {
		hasAgg := false
		for _, f := range st.Fields {
			switch f.Type.(type) {
			case *cltypes.Array, *cltypes.StructT:
				hasAgg = true
			}
		}
		if hasAgg && len(st.Fields) > 0 {
			last := dst.Kids[len(st.Fields)-1]
			if _, ok := last.Typ.(*cltypes.Scalar); ok {
				last.Val = 0
			}
		}
	}
}
