package sema

import (
	"strings"

	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
)

// Builtin classification, shared with the executor.

// IsIDBuiltin reports whether name is a work-item identification builtin.
func IsIDBuiltin(name string) bool {
	switch name {
	case "get_global_id", "get_local_id", "get_group_id",
		"get_global_size", "get_local_size", "get_num_groups",
		"get_work_dim",
		"get_linear_global_id", "get_linear_local_id", "get_linear_group_id":
		return true
	}
	return false
}

// IsAtomicBuiltin reports whether name is a read-modify-write atomic.
func IsAtomicBuiltin(name string) bool {
	switch name {
	case "atomic_add", "atomic_sub", "atomic_min", "atomic_max",
		"atomic_and", "atomic_or", "atomic_xor", "atomic_xchg",
		"atomic_inc", "atomic_dec", "atomic_cmpxchg":
		return true
	}
	return false
}

// IsSafeMathBuiltin reports whether name is one of the total "safe math"
// wrappers the generator emits in place of raw C operators (the Csmith
// safe-math approach lifted to OpenCL, paper §4.1).
func IsSafeMathBuiltin(name string) bool {
	switch name {
	case "safe_add", "safe_sub", "safe_mul", "safe_div", "safe_mod",
		"safe_lshift", "safe_rshift", "safe_unary_minus", "safe_clamp":
		return true
	}
	return false
}

// checkCall types a function or builtin call. The input node is left
// untouched: arguments are checked into a freshly built call node, which
// the per-builtin checkers below annotate and return.
func (c *checker) checkCall(call *ast.Call) (ast.Expr, error) {
	ex := grab(&c.a.calls)
	ex.Name, ex.Args = call.Name, grabSlice(&c.a.exprs, len(call.Args))
	for i, a := range call.Args {
		ca, err := c.checkExpr(a)
		if err != nil {
			return nil, err
		}
		ex.Args[i] = ca
	}
	switch {
	case IsIDBuiltin(ex.Name):
		return c.checkIDBuiltin(ex)
	case ex.Name == "barrier":
		c.info.HasBarrier = true
		c.info.BarrierCount++
		if len(ex.Args) != 1 || !cltypes.IsScalarInt(ex.Args[0].Type()) {
			return nil, c.errf("barrier expects one integer fence argument")
		}
		ex.SetType(cltypes.TVoid)
		return ex, nil
	case IsAtomicBuiltin(ex.Name):
		return c.checkAtomic(ex)
	case IsSafeMathBuiltin(ex.Name):
		return c.checkSafeMath(ex)
	case ex.Name == "clamp":
		return c.checkTernaryElementwise(ex)
	case ex.Name == "rotate" || ex.Name == "add_sat" || ex.Name == "sub_sat" ||
		ex.Name == "hadd" || ex.Name == "mul_hi" || ex.Name == "min" || ex.Name == "max":
		return c.checkBinaryElementwise(ex)
	case ex.Name == "abs" || ex.Name == "popcount" || ex.Name == "clz":
		return c.checkUnaryElementwise(ex)
	case strings.HasPrefix(ex.Name, "convert_"):
		return c.checkConvert(ex)
	case ex.Name == "crc64":
		if len(ex.Args) != 2 || !cltypes.IsScalarInt(ex.Args[0].Type()) || !cltypes.IsScalarInt(ex.Args[1].Type()) {
			return nil, c.errf("crc64 expects (ulong, integer)")
		}
		ex.SetType(cltypes.TULong)
		return ex, nil
	case ex.Name == "vcrc":
		if len(ex.Args) != 2 || !cltypes.IsScalarInt(ex.Args[0].Type()) || !cltypes.IsVector(ex.Args[1].Type()) {
			return nil, c.errf("vcrc expects (ulong, vector)")
		}
		ex.SetType(cltypes.TULong)
		return ex, nil
	}
	// User function.
	f, ok := c.funcs[ex.Name]
	if !ok {
		return nil, c.errf("call to undeclared function %q", ex.Name)
	}
	if len(ex.Args) != len(f.Params) {
		return nil, c.errf("function %s expects %d arguments, got %d", ex.Name, len(f.Params), len(ex.Args))
	}
	for i, a := range ex.Args {
		pt := f.Params[i].Type
		at := a.Type()
		if at.Equal(pt) {
			continue
		}
		if cltypes.IsScalarInt(at) && cltypes.IsScalarInt(pt) {
			continue
		}
		if _, isPtr := pt.(*cltypes.Pointer); isPtr {
			if lit, ok := a.(*ast.IntLit); ok && lit.Val == 0 {
				continue
			}
		}
		return nil, c.errf("argument %d to %s has type %s, expected %s", i+1, ex.Name, at, pt)
	}
	ex.SetType(f.Ret)
	return ex, nil
}

func (c *checker) checkIDBuiltin(ex *ast.Call) (ast.Expr, error) {
	dimArg := strings.HasPrefix(ex.Name, "get_") && !strings.HasPrefix(ex.Name, "get_linear") && ex.Name != "get_work_dim"
	if dimArg {
		if len(ex.Args) != 1 || !cltypes.IsScalarInt(ex.Args[0].Type()) {
			return nil, c.errf("%s expects one integer dimension argument", ex.Name)
		}
	} else if len(ex.Args) != 0 {
		return nil, c.errf("%s expects no arguments", ex.Name)
	}
	if strings.Contains(ex.Name, "group") || strings.Contains(ex.Name, "num_groups") {
		c.info.UsesGroupID = true
	}
	if ex.Name == "get_work_dim" {
		ex.SetType(cltypes.TUInt)
	} else {
		ex.SetType(cltypes.TSizeT)
	}
	return ex, nil
}

func (c *checker) checkAtomic(ex *ast.Call) (ast.Expr, error) {
	nargs := 2
	switch ex.Name {
	case "atomic_inc", "atomic_dec":
		nargs = 1
	case "atomic_cmpxchg":
		nargs = 3
	}
	if len(ex.Args) != nargs {
		return nil, c.errf("%s expects %d arguments", ex.Name, nargs)
	}
	pt, ok := ex.Args[0].Type().(*cltypes.Pointer)
	if !ok {
		return nil, c.errf("%s expects a pointer first argument", ex.Name)
	}
	et, ok := pt.Elem.(*cltypes.Scalar)
	if !ok || et.Bits != 32 {
		return nil, c.errf("%s requires a pointer to a 32-bit integer", ex.Name)
	}
	if pt.Space != cltypes.Global && pt.Space != cltypes.Local {
		return nil, c.errf("%s requires a global or local pointer", ex.Name)
	}
	for _, a := range ex.Args[1:] {
		if !cltypes.IsScalarInt(a.Type()) {
			return nil, c.errf("%s operand must be an integer", ex.Name)
		}
	}
	ex.SetType(et)
	return ex, nil
}

// checkSafeMath types the generator's total arithmetic wrappers. They follow
// the typing of the underlying operator.
func (c *checker) checkSafeMath(ex *ast.Call) (ast.Expr, error) {
	switch ex.Name {
	case "safe_unary_minus":
		if len(ex.Args) != 1 {
			return nil, c.errf("%s expects 1 argument", ex.Name)
		}
		switch t := ex.Args[0].Type().(type) {
		case *cltypes.Scalar:
			ex.SetType(cltypes.Promote(t))
		case *cltypes.Vector:
			ex.SetType(t)
		default:
			return nil, c.errf("invalid operand %s to %s", ex.Args[0].Type(), ex.Name)
		}
		return ex, nil
	case "safe_clamp":
		return c.checkTernaryElementwise(ex)
	case "safe_lshift", "safe_rshift":
		if len(ex.Args) != 2 {
			return nil, c.errf("%s expects 2 arguments", ex.Name)
		}
		switch t := ex.Args[0].Type().(type) {
		case *cltypes.Scalar:
			if !cltypes.IsScalarInt(ex.Args[1].Type()) {
				return nil, c.errf("shift amount must be an integer scalar")
			}
			ex.SetType(cltypes.Promote(t))
		case *cltypes.Vector:
			if at, ok := ex.Args[1].Type().(*cltypes.Vector); ok && at.Len != t.Len {
				return nil, c.errf("vector shift operands must have the same length")
			} else if !ok && !cltypes.IsScalarInt(ex.Args[1].Type()) {
				return nil, c.errf("shift amount must be an integer")
			}
			ex.SetType(t)
		default:
			return nil, c.errf("invalid operand %s to %s", ex.Args[0].Type(), ex.Name)
		}
		return ex, nil
	default: // safe_add, safe_sub, safe_mul, safe_div, safe_mod
		if len(ex.Args) != 2 {
			return nil, c.errf("%s expects 2 arguments", ex.Name)
		}
		lt, rt := ex.Args[0].Type(), ex.Args[1].Type()
		ls, lok := lt.(*cltypes.Scalar)
		rs, rok := rt.(*cltypes.Scalar)
		switch {
		case lok && rok:
			ex.SetType(cltypes.UsualArith(ls, rs))
		case cltypes.IsVector(lt) && lt.Equal(rt):
			ex.SetType(lt)
		case cltypes.IsVector(lt) && rok:
			ex.SetType(lt)
		case lok && cltypes.IsVector(rt):
			ex.SetType(rt)
		default:
			return nil, c.errf("invalid operands %s and %s to %s", lt, rt, ex.Name)
		}
		return ex, nil
	}
}

// checkBinaryElementwise types two-argument element-wise builtins that
// require both operands to have the same type (scalar or vector), per the
// OpenCL specification for rotate, min, max, etc.
func (c *checker) checkBinaryElementwise(ex *ast.Call) (ast.Expr, error) {
	if len(ex.Args) != 2 {
		return nil, c.errf("%s expects 2 arguments", ex.Name)
	}
	lt, rt := ex.Args[0].Type(), ex.Args[1].Type()
	switch t := lt.(type) {
	case *cltypes.Scalar:
		if !cltypes.IsScalarInt(rt) {
			return nil, c.errf("operands to %s must both be integers", ex.Name)
		}
		rs := rt.(*cltypes.Scalar)
		ex.SetType(cltypes.UsualArith(t, rs))
		return ex, nil
	case *cltypes.Vector:
		c.info.UsesVector = true
		if !lt.Equal(rt) {
			return nil, c.errf("operands to %s must have the same vector type", ex.Name)
		}
		ex.SetType(t)
		return ex, nil
	}
	return nil, c.errf("invalid operand %s to %s", lt, ex.Name)
}

func (c *checker) checkUnaryElementwise(ex *ast.Call) (ast.Expr, error) {
	if len(ex.Args) != 1 {
		return nil, c.errf("%s expects 1 argument", ex.Name)
	}
	switch t := ex.Args[0].Type().(type) {
	case *cltypes.Scalar:
		ex.SetType(t)
		return ex, nil
	case *cltypes.Vector:
		c.info.UsesVector = true
		ex.SetType(t)
		return ex, nil
	}
	return nil, c.errf("invalid operand %s to %s", ex.Args[0].Type(), ex.Name)
}

// checkTernaryElementwise types clamp/safe_clamp: three operands of the
// same shape.
func (c *checker) checkTernaryElementwise(ex *ast.Call) (ast.Expr, error) {
	if len(ex.Args) != 3 {
		return nil, c.errf("%s expects 3 arguments", ex.Name)
	}
	xt := ex.Args[0].Type()
	switch t := xt.(type) {
	case *cltypes.Scalar:
		for _, a := range ex.Args[1:] {
			if !cltypes.IsScalarInt(a.Type()) {
				return nil, c.errf("operands to %s must all be integers", ex.Name)
			}
		}
		ex.SetType(t)
		return ex, nil
	case *cltypes.Vector:
		c.info.UsesVector = true
		for _, a := range ex.Args[1:] {
			if !a.Type().Equal(xt) {
				return nil, c.errf("operands to %s must have the same vector type", ex.Name)
			}
		}
		ex.SetType(t)
		return ex, nil
	}
	return nil, c.errf("invalid operand %s to %s", xt, ex.Name)
}

// checkConvert types convert_<T>(x) explicit conversions: scalar to scalar
// or vector to vector of the same length.
func (c *checker) checkConvert(ex *ast.Call) (ast.Expr, error) {
	name := strings.TrimPrefix(ex.Name, "convert_")
	if len(ex.Args) != 1 {
		return nil, c.errf("%s expects 1 argument", ex.Name)
	}
	at := ex.Args[0].Type()
	if v, ok := cltypes.VectorByName(name); ok {
		av, ok := at.(*cltypes.Vector)
		if !ok || av.Len != v.Len {
			return nil, c.errf("%s requires a vector of length %d, found %s", ex.Name, v.Len, at)
		}
		c.info.UsesVector = true
		ex.SetType(v)
		return ex, nil
	}
	if s, ok := cltypes.ScalarByName(name); ok {
		if !cltypes.IsScalarInt(at) {
			return nil, c.errf("%s requires a scalar operand, found %s", ex.Name, at)
		}
		ex.SetType(s)
		return ex, nil
	}
	return nil, c.errf("unknown conversion %s", ex.Name)
}
