package exec

import (
	"fmt"
	"strings"

	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
)

func (t *thread) evalCall(ex *ast.Call, out *Value) error {
	switch ex.Name {
	case "get_global_id", "get_local_id", "get_group_id",
		"get_global_size", "get_local_size", "get_num_groups":
		if err := t.evalExpr(ex.Args[0], out); err != nil {
			return err
		}
		dim := int(out.Scalar)
		*out = scalarValue(t.idBuiltin(ex.Name, dim), cltypes.TSizeT)
		return nil
	case "get_work_dim":
		*out = scalarValue(3, cltypes.TUInt)
		return nil
	case "get_linear_global_id":
		*out = scalarValue(uint64(t.gidLinear()), cltypes.TSizeT)
		return nil
	case "get_linear_local_id":
		*out = scalarValue(uint64(t.lidLinear()), cltypes.TSizeT)
		return nil
	case "get_linear_group_id":
		*out = scalarValue(uint64(t.groupLinear()), cltypes.TSizeT)
		return nil
	case "barrier":
		if err := t.evalExpr(ex.Args[0], out); err != nil {
			return err
		}
		if t.group == nil {
			return fmt.Errorf("exec: barrier outside kernel execution")
		}
		if t.group.bar == nil {
			// Unreachable when the front end's NoBarrier guarantee holds;
			// fail loudly rather than corrupt the sequential fast path.
			return &CrashError{Msg: "barrier reached in barrier-free sequential execution"}
		}
		tok := barrierToken{node: ex, iters: t.iterDigest()}
		if err := t.group.bar.await(tok, out.Scalar, t.lidLinear()); err != nil {
			return err
		}
		t.barrierSeen = true
		t.barrierCount++
		*out = Value{T: cltypes.TVoid}
		return nil
	case "crc64":
		var c Value
		if err := t.evalExpr(ex.Args[0], &c); err != nil {
			return err
		}
		if err := t.evalExpr(ex.Args[1], out); err != nil {
			return err
		}
		vs := out.T.(*cltypes.Scalar)
		*out = scalarValue(crcMix(c.Scalar, cltypes.SExt(out.Scalar, vs)), cltypes.TULong)
		return nil
	case "vcrc":
		var c Value
		if err := t.evalExpr(ex.Args[0], &c); err != nil {
			return err
		}
		if err := t.evalExpr(ex.Args[1], out); err != nil {
			return err
		}
		h := c.Scalar
		for _, comp := range out.Vec {
			h = crcMix(h, comp)
		}
		*out = scalarValue(h, cltypes.TULong)
		return nil
	}
	if strings.HasPrefix(ex.Name, "atomic_") {
		return t.evalAtomic(ex, out)
	}
	switch ex.Name {
	case "safe_add", "safe_sub", "safe_mul", "safe_div", "safe_mod",
		"safe_lshift", "safe_rshift", "safe_unary_minus", "safe_clamp",
		"clamp", "rotate", "min", "max", "abs", "add_sat", "sub_sat",
		"hadd", "mul_hi", "popcount", "clz":
		return t.evalMath(ex, out)
	}
	if strings.HasPrefix(ex.Name, "convert_") {
		if err := t.evalExpr(ex.Args[0], out); err != nil {
			return err
		}
		switch to := ex.Type().(type) {
		case *cltypes.Scalar:
			*out = convertScalar(out, to)
			return nil
		case *cltypes.Vector:
			src := out.T.(*cltypes.Vector)
			vec := make([]uint64, to.Len)
			for i, c := range out.Vec {
				vec[i] = cltypes.Convert(c, src.Elem, to.Elem)
			}
			*out = Value{T: to, Vec: vec}
			return nil
		}
		return fmt.Errorf("exec: bad convert result type")
	}
	return t.evalUserCall(ex, out)
}

// iterDigest hashes the loop iteration counters for barrier divergence
// tokens.
func (t *thread) iterDigest() uint64 {
	h := uint64(14695981039346656037)
	for _, it := range t.iterStack {
		h ^= it
		h *= 1099511628211
	}
	return h
}

// crcMix is the checksum combiner backing the crc64/vcrc builtins: a
// 64-bit finalizer with good avalanche behaviour, so result mismatches
// propagate to the final output the way CLsmith's CRC does.
func crcMix(h, v uint64) uint64 {
	h ^= v
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (t *thread) idBuiltin(name string, dim int) uint64 {
	if dim < 0 || dim > 2 {
		// Per the OpenCL specification, out-of-range dimensions yield 0
		// for ids and 1 for sizes.
		if strings.Contains(name, "size") || strings.Contains(name, "num_groups") {
			return 1
		}
		return 0
	}
	switch name {
	case "get_global_id":
		return uint64(t.gid[dim])
	case "get_local_id":
		return uint64(t.lid[dim])
	case "get_group_id":
		return uint64(t.group.id[dim])
	case "get_global_size":
		return uint64(t.m.nd.Global[dim])
	case "get_local_size":
		return uint64(t.m.nd.Local[dim])
	case "get_num_groups":
		return uint64(t.m.nd.NumGroups()[dim])
	}
	return 0
}

func (t *thread) evalAtomic(ex *ast.Call, out *Value) error {
	if err := t.evalExpr(ex.Args[0], out); err != nil {
		return err
	}
	ptr := out.Ptr
	// Resolve the destination: a flat buffer word or a cell.
	word := ptr.flatWord()
	var target *Cell
	var st *cltypes.Scalar
	if word != nil {
		st = ptr.Flat.wordT
	} else {
		if ptr.Flat != nil {
			return &CrashError{Msg: "atomic on null pointer"}
		}
		target = ptr.Target()
		if target == nil {
			return &CrashError{Msg: "atomic on null pointer"}
		}
		var ok bool
		st, ok = target.Typ.(*cltypes.Scalar)
		if !ok {
			return fmt.Errorf("exec: atomic on non-scalar cell")
		}
	}
	var operand, cmp uint64
	if len(ex.Args) >= 2 {
		if err := t.evalExpr(ex.Args[1], out); err != nil {
			return err
		}
		os := out.T.(*cltypes.Scalar)
		operand = cltypes.Convert(out.Scalar, os, st)
	}
	if len(ex.Args) == 3 {
		cmp = operand
		if err := t.evalExpr(ex.Args[2], out); err != nil {
			return err
		}
		vs := out.T.(*cltypes.Scalar)
		operand = cltypes.Convert(out.Scalar, vs, st)
	}
	if t.m.opts.CheckRaces {
		var err error
		if word != nil {
			err = t.noteWordAccess(word, true, true)
		} else {
			err = t.noteAccess(target, true, true)
		}
		if err != nil {
			return err
		}
	}
	// The baton makes the read-modify-write atomic: no other thread of
	// the launch runs until this one yields.
	if word == nil {
		word = &target.Val
	}
	next, ok := atomicNext(ex.Name, *word, operand, cmp, st)
	if !ok {
		return fmt.Errorf("exec: unknown atomic %s", ex.Name)
	}
	*out = scalarValue(*word, st)
	*word = next
	return nil
}

// atomicNext computes the stored value of a read-modify-write atomic.
func atomicNext(name string, old, operand, cmp uint64, st *cltypes.Scalar) (uint64, bool) {
	switch name {
	case "atomic_add":
		return cltypes.Add(old, operand, st), true
	case "atomic_sub":
		return cltypes.Sub(old, operand, st), true
	case "atomic_min":
		return cltypes.Min(old, operand, st), true
	case "atomic_max":
		return cltypes.Max(old, operand, st), true
	case "atomic_and":
		return cltypes.And(old, operand, st), true
	case "atomic_or":
		return cltypes.Or(old, operand, st), true
	case "atomic_xor":
		return cltypes.Xor(old, operand, st), true
	case "atomic_xchg":
		return operand, true
	case "atomic_inc":
		return cltypes.Add(old, 1, st), true
	case "atomic_dec":
		return cltypes.Sub(old, 1, st), true
	case "atomic_cmpxchg":
		if old == cmp {
			return operand, true
		}
		return old, true
	}
	return 0, false
}

// evalMath implements the element-wise math builtins and the generator's
// total safe-math wrappers. The builtins have at most three operands
// (clamp and safe_clamp), so operands and scalar lanes live on the Go
// stack — the safe-math wrappers are the hottest calls in generated
// kernels and must not allocate.
func (t *thread) evalMath(ex *ast.Call, out *Value) error {
	rt := ex.Type()
	// Scalar fast path: evaluate each operand into out and convert its
	// lane immediately — no Value array, no allocation. Sema guarantees a
	// scalar-typed math builtin has scalar operands.
	if st, ok := rt.(*cltypes.Scalar); ok && len(ex.Args) <= 3 {
		var vals [3]uint64
		for i := range ex.Args {
			if err := t.evalExpr(ex.Args[i], out); err != nil {
				return err
			}
			vals[i] = cltypes.Convert(out.Scalar, out.T.(*cltypes.Scalar), st)
		}
		*out = scalarValue(mathOp(ex.Name, vals[:len(ex.Args)], st), st)
		return nil
	}
	var argsArr [3]Value
	var args []Value
	if len(ex.Args) <= len(argsArr) {
		args = argsArr[:len(ex.Args)]
	} else {
		args = make([]Value, len(ex.Args))
	}
	for i := range ex.Args {
		if err := t.evalExpr(ex.Args[i], &args[i]); err != nil {
			return err
		}
	}
	if vt, ok := rt.(*cltypes.Vector); ok {
		comps := make([][]uint64, len(args))
		for i := range args {
			c, err := vecComponents(&args[i], vt)
			if err != nil {
				return err
			}
			comps[i] = c
		}
		vec := make([]uint64, vt.Len)
		for i := range vec {
			vals := make([]uint64, len(args))
			for j := range args {
				vals[j] = comps[j][i]
			}
			vec[i] = mathOp(ex.Name, vals, vt.Elem)
		}
		*out = Value{T: vt, Vec: vec}
		return nil
	}
	// >3 scalar operands: no current builtin, but stay total.
	st := rt.(*cltypes.Scalar)
	vals := make([]uint64, len(args))
	for i := range args {
		as := args[i].T.(*cltypes.Scalar)
		vals[i] = cltypes.Convert(args[i].Scalar, as, st)
	}
	*out = scalarValue(mathOp(ex.Name, vals, st), st)
	return nil
}

// mathOp computes one scalar lane of a math builtin. All operations are
// total: the safe_ wrappers implement the paper's safe-math macro
// semantics (return the first operand when the raw operation would be
// undefined).
func mathOp(name string, v []uint64, t *cltypes.Scalar) uint64 {
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
		// safe_clamp(x,min,max) == (min > max ? x : clamp(x,min,max)).
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

func (t *thread) evalUserCall(ex *ast.Call, out *Value) error {
	f, ok := t.m.funcs[ex.Name]
	if !ok {
		return fmt.Errorf("exec: call to undefined function %q", ex.Name)
	}
	if t.depth >= 64 {
		return &CrashError{Msg: "call stack overflow"}
	}
	// The callee frame is built while the caller's scope stays installed:
	// each argument is evaluated and immediately bound (copied) into its
	// parameter cell before the next argument runs. Immediate binding is
	// what makes borrowed aggregate values (Value.Agg) safe here — a later
	// argument's side effects cannot retroactively change an earlier
	// argument, exactly the semantics the old copy-at-load gave.
	saved := t.env
	frame := &env{frame: true}
	var arg Value
	for i, p := range f.Params {
		if err := t.evalExpr(ex.Args[i], &arg); err != nil {
			return err
		}
		c := t.newPrivCell(p.Type)
		if err := storeCell(c, &arg); err != nil {
			return err
		}
		frame.define(p.Name, c, true)
	}
	t.env = frame
	t.depth++
	t.retVal = Value{T: cltypes.TVoid}
	cf, err := t.execBlock(f.Body)
	t.depth--
	t.env = saved
	if err != nil {
		return err
	}
	if cf == ctrlReturn {
		*out = t.retVal
		if rt, ok := f.Ret.(*cltypes.Scalar); ok {
			if _, isS := out.T.(*cltypes.Scalar); isS {
				*out = convertScalar(out, rt)
			}
		}
		return nil
	}
	if f.Ret.Equal(cltypes.TVoid) {
		*out = Value{T: cltypes.TVoid}
		return nil
	}
	// Falling off the end of a value-returning function is undefined in C;
	// our subset returns a zero value to stay total.
	if rt, ok := f.Ret.(*cltypes.Scalar); ok {
		*out = scalarValue(0, rt)
		return nil
	}
	return fmt.Errorf("exec: function %s fell off the end", f.Name)
}
