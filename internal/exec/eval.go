package exec

import (
	"fmt"

	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/code"
)

// thread is the execution state of one work-item.
type thread struct {
	m     *Machine
	group *groupCtx
	gid   [3]int
	lid   [3]int

	fuel        int64
	env         *env
	depth       int
	barrierSeen bool
	// barrierCount is the number of barrier rounds the thread completed;
	// the group compares counts after all threads finish, which detects
	// the divergence where a thread exits before the others even arrive
	// (the wait-based check alone depends on scheduling order).
	barrierCount int
	iterStack    []uint64
	retVal       Value

	// scratch absorbs expression results that statements discard and loop
	// conditions; one per thread, reused at every nesting level (safe
	// because evaluators fully assign their out-value before returning and
	// never read it after nested statement execution).
	scratch Value

	// cells is the arena for private cells (declarations, parameters,
	// initializer temporaries). Cells are handed out by pointer and stay
	// alive as long as something references them; the arena batches their
	// allocation and — because threads are pooled across launches —
	// retains its chunks, re-zeroing the used region between uses.
	cells arena[Cell]

	// vm holds the register VM's stacks when the launch runs lowered
	// bytecode; the sequential path shares one vmState across the
	// launch's threads. vmInstrs counts dispatched instructions,
	// folded into the process-wide counter when the thread finishes.
	vm       *vmState
	vmInstrs int64
	// kids, words and bytes batch the Kids, Vec and Bytes backing slices
	// of arena cells the same way: aggregate declarations request many
	// small slices whose lifetimes all end with the cells they belong to.
	// Spans are handed out disjoint and never grown, so no two cells
	// alias.
	kids  arena[*Cell]
	words arena[uint64]
	bytes arena[byte]
}

// grabKids hands out a zeroed *Cell span of length n from the arena.
func (t *thread) grabKids(n int) []*Cell { return t.kids.grab(n) }

// grabWords hands out a zeroed uint64 span of length n from the arena.
func (t *thread) grabWords(n int) []uint64 { return t.words.grab(n) }

// binding is one declared name in a scope.
type binding struct {
	name  string
	c     *Cell
	param bool
}

// env is one lexical scope: the bindings declared in it, newest last, and
// the enclosing scope.
type env struct {
	parent *env
	vars   []binding
	// frame marks a function-frame boundary; its param bindings are the
	// ones the barrier-related defect models consult.
	frame bool
}

// define binds name in the scope. Scans in lookup run newest-first, so a
// rebinding shadows the earlier one.
func (e *env) define(name string, c *Cell, param bool) {
	e.vars = append(e.vars, binding{name: name, c: c, param: param})
}

// lookup resolves name by walking the scope chain outward, falling back
// to the program-scope constants; nil means undefined.
func (t *thread) lookup(name string) *Cell {
	for e := t.env; e != nil; e = e.parent {
		for i := len(e.vars) - 1; i >= 0; i-- {
			if e.vars[i].name == name {
				return e.vars[i].c
			}
		}
	}
	return t.m.globals[name]
}

// isParam reports whether name is a parameter of the current function
// frame (the innermost frame-marked scope, regardless of shadowing in
// inner block scopes — the defect models key on the syntactic name).
func (t *thread) isParam(name string) bool {
	for e := t.env; e != nil; e = e.parent {
		if e.frame {
			for i := range e.vars {
				if e.vars[i].param && e.vars[i].name == name {
					return true
				}
			}
			return false
		}
	}
	return false
}

// arenaCell hands out one zeroed private cell from the thread's arena.
// The arena's reset discipline re-zeroes the used region before reuse, so
// every slot handed out starts zero-initialized.
func (t *thread) arenaCell(typ cltypes.Type) *Cell {
	c := t.cells.one()
	c.Typ = typ
	c.Space = cltypes.Private
	return c
}

// newPrivCell arena-allocates a private (non-shared) cell tree of type typ:
// every node — including the scalar leaves of structs and arrays, which
// with declaration initializers are the interpreter's dominant allocation
// — comes from the chunk; only the Kids/Vec/Bytes backing slices are
// individual allocations.
func (t *thread) newPrivCell(typ cltypes.Type) *Cell {
	switch tt := typ.(type) {
	case *cltypes.Scalar, *cltypes.Pointer:
		return t.arenaCell(typ)
	case *cltypes.Vector:
		c := t.arenaCell(typ)
		c.Vec = t.grabWords(tt.Len)
		return c
	case *cltypes.StructT:
		c := t.arenaCell(typ)
		if tt.IsUnion {
			c.Bytes = t.bytes.grab(tt.Size())
			return c
		}
		c.Kids = t.grabKids(len(tt.Fields))
		for i, f := range tt.Fields {
			c.Kids[i] = t.newPrivCell(f.Type)
		}
		return c
	case *cltypes.Array:
		c := t.arenaCell(typ)
		c.Kids = t.grabKids(tt.Len)
		for i := range c.Kids {
			c.Kids[i] = t.newPrivCell(tt.Elem)
		}
		return c
	}
	return newCell(typ, cltypes.Private, false)
}

// step charges one fuel unit.
func (t *thread) step() error {
	t.fuel--
	if t.fuel <= 0 {
		return &TimeoutError{Where: "kernel execution"}
	}
	return nil
}

// control-flow result of statement execution.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// run executes the thread's kernel on the launch's selected engine: the
// register VM when the machine holds lowered bytecode, the reference
// tree walker otherwise. Both engines produce byte-identical results —
// including fuel-derived timeouts and every defect model — which the
// determinism suites and FuzzLowerMatchesTree pin.
func (t *thread) run() error {
	if fn := faultHook.Load(); fn != nil {
		(*fn)()
	}
	if t.m.code != nil {
		return t.runVMKernel()
	}
	return t.runKernel()
}

func (t *thread) runKernel() error {
	t.env = &env{frame: true}
	for _, p := range t.m.kernel.Params {
		arg := t.m.args[p.Name]
		c := t.newPrivCell(p.Type)
		if _, ok := p.Type.(*cltypes.Pointer); ok {
			if arg.Buf == nil {
				return fmt.Errorf("exec: kernel argument %q requires a buffer", p.Name)
			}
			if arg.Buf.wordT != nil {
				c.Ptr = Ptr{Flat: arg.Buf}
			} else {
				c.Ptr = Ptr{Slice: arg.Buf.Cells}
			}
		} else if s, ok := p.Type.(*cltypes.Scalar); ok {
			c.Val = cltypes.Trunc(arg.Scalar, s)
		} else {
			return fmt.Errorf("exec: unsupported kernel parameter type %s", p.Type)
		}
		t.env.define(p.Name, c, true)
	}
	_, err := t.execBlock(t.m.kernel.Body)
	return err
}

func (t *thread) execBlock(b *ast.Block) (ctrl, error) {
	// Lazy scope push: most blocks declare nothing, so the child scope is
	// created only when the first declaration executes. Name resolution
	// before that point is identical either way.
	saved := t.env
	defer func() { t.env = saved }()
	for _, s := range b.Stmts {
		if t.env == saved {
			if _, isDecl := s.(*ast.DeclStmt); isDecl {
				t.env = &env{parent: saved}
			}
		}
		c, err := t.execStmt(s)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (t *thread) execStmt(s ast.Stmt) (ctrl, error) {
	if err := t.step(); err != nil {
		return ctrlNone, err
	}
	switch st := s.(type) {
	case *ast.DeclStmt:
		return ctrlNone, t.execDecl(st.Decl)
	case *ast.ExprStmt:
		// Assignments in statement position — the bulk of generated code —
		// skip materializing the assigned value.
		if asn, ok := st.X.(*ast.AssignExpr); ok {
			if err := t.step(); err != nil { // the step evalExpr would charge
				return ctrlNone, err
			}
			return ctrlNone, t.evalAssign(asn, nil)
		}
		return ctrlNone, t.evalExpr(st.X, &t.scratch)
	case *ast.Block:
		return t.execBlock(st)
	case *ast.If:
		if err := t.evalExpr(st.Cond, &t.scratch); err != nil {
			return ctrlNone, err
		}
		if t.scratch.isTrue() {
			return t.execBlock(st.Then)
		}
		if st.Else != nil {
			return t.execStmt(st.Else)
		}
		return ctrlNone, nil
	case *ast.For:
		return t.execFor(st)
	case *ast.While:
		return t.execLoop(nil, st.Cond, nil, st.Body, false)
	case *ast.DoWhile:
		return t.execLoop(nil, st.Cond, nil, st.Body, true)
	case *ast.Break:
		return ctrlBreak, nil
	case *ast.Continue:
		return ctrlContinue, nil
	case *ast.Return:
		if st.X != nil {
			if err := t.evalExpr(st.X, &t.retVal); err != nil {
				return ctrlNone, err
			}
		} else {
			t.retVal = Value{T: cltypes.TVoid}
		}
		return ctrlReturn, nil
	case *ast.Empty:
		return ctrlNone, nil
	}
	return ctrlNone, fmt.Errorf("exec: unknown statement %T", s)
}

func (t *thread) execFor(st *ast.For) (ctrl, error) {
	// An init declaration scopes its induction variable to the loop;
	// without one the loop adds no scope.
	if _, isDecl := st.Init.(*ast.DeclStmt); isDecl {
		saved := t.env
		t.env = &env{parent: saved}
		defer func() { t.env = saved }()
	}
	if st.Init != nil {
		if _, err := t.execStmt(st.Init); err != nil {
			return ctrlNone, err
		}
	}
	return t.execLoop(st, st.Cond, st.Post, st.Body, false)
}

// execLoop runs the shared loop protocol. forNode is non-nil for for
// loops, enabling the Figure 2(d) dead-loop-with-barrier defect model.
func (t *thread) execLoop(forNode *ast.For, cond ast.Expr, post ast.Expr, body *ast.Block, doFirst bool) (ctrl, error) {
	t.iterStack = append(t.iterStack, 0)
	defer func() { t.iterStack = t.iterStack[:len(t.iterStack)-1] }()
	iterations := uint64(0)
	// The thread scratch absorbs every condition and post evaluation; the
	// value is consumed (isTrue) immediately after each evaluation.
	for {
		if !doFirst || iterations > 0 {
			if cond != nil {
				if err := t.evalExpr(cond, &t.scratch); err != nil {
					return ctrlNone, err
				}
				if !t.scratch.isTrue() {
					break
				}
			}
		}
		if err := t.step(); err != nil {
			return ctrlNone, err
		}
		iterations++
		t.iterStack[len(t.iterStack)-1] = iterations
		c, err := t.execBlock(body)
		if err != nil {
			return ctrlNone, err
		}
		if c == ctrlBreak {
			break
		}
		if c == ctrlReturn {
			return ctrlReturn, nil
		}
		if post != nil {
			if err := t.evalExpr(post, &t.scratch); err != nil {
				return ctrlNone, err
			}
		}
		if doFirst && cond != nil && iterations > 0 {
			if err := t.evalExpr(cond, &t.scratch); err != nil {
				return ctrlNone, err
			}
			if !t.scratch.isTrue() {
				break
			}
		}
	}
	// Figure 2(d): Intel configs 14-/15- miscompile a loop whose body is
	// unreachable but contains a barrier; non-leader threads observe the
	// loop's init assignment clobbered to 1.
	if forNode != nil && iterations == 0 && t.lidLinear() != 0 &&
		code.ContainsBarrier(forNode.Body) && t.m.defect(bugs.WCDeadLoopBarrier) {
		if es, ok := forNode.Init.(*ast.ExprStmt); ok {
			if asn, ok := es.X.(*ast.AssignExpr); ok {
				lv, err := t.evalLV(asn.LHS)
				if err == nil {
					if s, ok := lv.typ().(*cltypes.Scalar); ok {
						one := scalarValue(1, s)
						_ = lv.store(&one)
					}
				}
			}
		}
	}
	return ctrlNone, nil
}

func (t *thread) execDecl(d *ast.VarDecl) error {
	if d.Space == cltypes.Local {
		// Local-memory variables are allocated once per work-group and
		// shared by its threads. OpenCL forbids initializers on them.
		g := t.group
		c, ok := g.local[d]
		if !ok {
			c = NewCell(d.Type, cltypes.Local)
			g.local[d] = c
		}
		t.env.define(d.Name, c, false)
		return nil
	}
	c := t.newPrivCell(d.Type)
	if d.Init != nil {
		var v Value
		if err := t.evalInit(d.Type, d.Init, &v); err != nil {
			return err
		}
		if err := storeCell(c, &v); err != nil {
			return err
		}
	}
	t.env.define(d.Name, c, false)
	return nil
}

// evalInit evaluates an initializer (possibly a braced aggregate list)
// against the declared type, applying the struct- and union-initializer
// defect models.
func (t *thread) evalInit(typ cltypes.Type, init ast.Expr, out *Value) error {
	il, ok := init.(*ast.InitList)
	if !ok {
		if err := t.evalExpr(init, out); err != nil {
			return err
		}
		if s, ok := typ.(*cltypes.Scalar); ok {
			if _, vok := out.T.(*cltypes.Scalar); vok {
				*out = convertScalar(out, s)
			}
		}
		return nil
	}
	c := t.newPrivCell(typ)
	switch tt := typ.(type) {
	case *cltypes.Scalar:
		if len(il.Elems) != 1 {
			return fmt.Errorf("exec: bad scalar initializer")
		}
		return t.evalInit(typ, il.Elems[0], out)
	case *cltypes.Array:
		var v Value
		for i, el := range il.Elems {
			if err := t.evalInit(tt.Elem, el, &v); err != nil {
				return err
			}
			if err := storeCell(c.Kids[i], &v); err != nil {
				return err
			}
		}
		*out = Value{T: typ, Agg: c}
		return nil
	case *cltypes.StructT:
		if tt.IsUnion {
			if len(il.Elems) == 1 {
				var fv Value
				if err := t.evalInit(tt.Fields[0].Type, il.Elems[0], &fv); err != nil {
					return err
				}
				if fs, ok := tt.Fields[0].Type.(*cltypes.Scalar); ok {
					if vs, vok := fv.T.(*cltypes.Scalar); vok {
						fv = convertScalar(&Value{T: vs, Scalar: fv.Scalar}, fs)
					}
				}
				if err := encodeValue(c.Bytes, &fv, tt.Fields[0].Type); err != nil {
					return err
				}
				// Figure 2(a): NVIDIA configurations without optimizations
				// initialize only the first two bytes of a union containing
				// a struct member with a small leading field; the remaining
				// bytes read back as ones.
				if unionHasSmallLeadStruct(tt) && t.m.defect(bugs.WCUnionInit) {
					for i := 2; i < len(c.Bytes) && i < tt.Fields[0].Type.Size(); i++ {
						c.Bytes[i] = 0xff
					}
				}
			}
			*out = Value{T: typ, Agg: c}
			return nil
		}
		var fv Value
		for i, el := range il.Elems {
			if err := t.evalInit(tt.Fields[i].Type, el, &fv); err != nil {
				return err
			}
			if err := storeCell(c.Kids[i], &fv); err != nil {
				return err
			}
		}
		// Figure 1(a): AMD configurations with optimizations miscompile any
		// struct in which a char field is directly followed by a larger
		// member — the char field reads as zero ("more generally these
		// configurations appear to miscompile any struct that starts with
		// char followed by a larger member", §6).
		if t.m.defect(bugs.WCStructCharFirst) {
			for _, fi := range charFirstLargerFields(tt) {
				c.Kids[fi].Val = 0
			}
		}
		*out = Value{T: typ, Agg: c}
		return nil
	}
	return fmt.Errorf("exec: bad initializer for %s", typ)
}

// charFirstLargerFields returns the indices of 1-byte scalar fields that
// are directly followed by a larger member (the Figure 1(a) trigger shape,
// generalized per §6 to any such adjacent pair).
func charFirstLargerFields(st *cltypes.StructT) []int {
	var out []int
	for i := 0; i+1 < len(st.Fields); i++ {
		f, ok := st.Fields[i].Type.(*cltypes.Scalar)
		if ok && f.Size() == 1 && st.Fields[i+1].Type.Size() > 1 {
			out = append(out, i)
		}
	}
	return out
}

// unionHasSmallLeadStruct reports the Figure 2(a) trigger shape: a union
// whose first field is larger than the leading field of a struct member.
func unionHasSmallLeadStruct(ut *cltypes.StructT) bool {
	if len(ut.Fields) < 2 {
		return false
	}
	lead := ut.Fields[0].Type.Size()
	for _, f := range ut.Fields[1:] {
		if st, ok := f.Type.(*cltypes.StructT); ok && !st.IsUnion && len(st.Fields) > 0 {
			if st.Fields[0].Type.Size() < lead {
				return true
			}
		}
	}
	return false
}

// ---- lvalues ----

// ptrLV resolves a pointer to the lvalue it addresses: a word view for
// flat-buffer pointers, a direct cell otherwise. Null, dangling, and
// out-of-range pointers report a crash with the given message.
func (t *thread) ptrLV(p Ptr, crashMsg string) (lval, error) {
	if p.Flat != nil {
		if p.flatWord() == nil {
			return lval{}, &CrashError{Msg: crashMsg}
		}
		return wordLV(p.Flat, p.Idx), nil
	}
	if target := p.Target(); target != nil {
		return directLV(target), nil
	}
	return lval{}, &CrashError{Msg: crashMsg}
}

// evalLV resolves an lvalue expression to the storage it designates.
func (t *thread) evalLV(e ast.Expr) (lval, error) {
	var tmp Value
	switch ex := e.(type) {
	case *ast.VarRef:
		c := t.lookup(ex.Name)
		if c == nil {
			return lval{}, fmt.Errorf("exec: undefined variable %q", ex.Name)
		}
		return directLV(c), nil
	case *ast.Unary:
		if ex.Op == ast.Deref {
			if err := t.evalExpr(ex.X, &tmp); err != nil {
				return lval{}, err
			}
			return t.ptrLV(tmp.Ptr, "null or dangling pointer dereference")
		}
	case *ast.Index:
		if err := t.evalExpr(ex.Idx, &tmp); err != nil {
			return lval{}, err
		}
		is, ok := tmp.T.(*cltypes.Scalar)
		if !ok {
			return lval{}, fmt.Errorf("exec: non-scalar index")
		}
		idx := int(cltypes.AsInt64(tmp.Scalar, is))
		if _, isPtr := ex.Base.Type().(*cltypes.Pointer); isPtr {
			if err := t.evalExpr(ex.Base, &tmp); err != nil {
				return lval{}, err
			}
			return t.ptrLV(tmp.Ptr.At(idx), "out-of-bounds buffer access")
		}
		blv, err := t.evalLV(ex.Base)
		if err != nil {
			return lval{}, err
		}
		if blv.uField != nil || blv.vecIdx >= 0 || blv.flat != nil {
			return lval{}, fmt.Errorf("exec: cannot index a view lvalue")
		}
		if idx < 0 || idx >= len(blv.c.Kids) {
			return lval{}, &CrashError{Msg: fmt.Sprintf("array index %d out of bounds [0,%d)", idx, len(blv.c.Kids))}
		}
		return directLV(blv.c.Kids[idx]), nil
	case *ast.Member:
		var base *Cell
		if ex.Arrow {
			if err := t.evalExpr(ex.Base, &tmp); err != nil {
				return lval{}, err
			}
			base = tmp.Ptr.Target()
			if base == nil {
				return lval{}, &CrashError{Msg: "null pointer member access"}
			}
		} else {
			blv, err := t.evalLV(ex.Base)
			if err != nil {
				return lval{}, err
			}
			if blv.uField != nil {
				return lval{}, fmt.Errorf("exec: nested union member views unsupported")
			}
			if blv.c == nil {
				return lval{}, fmt.Errorf("exec: member access on a non-aggregate lvalue")
			}
			base = blv.c
		}
		st, ok := base.Typ.(*cltypes.StructT)
		if !ok {
			return lval{}, fmt.Errorf("exec: member access on %s", base.Typ)
		}
		// sema records the resolved index; fall back to the name scan only
		// for nodes built outside the front end.
		i := ex.FieldIdx - 1
		if i < 0 {
			i = st.FieldIndex(ex.Name)
		}
		if i < 0 || i >= len(st.Fields) {
			return lval{}, fmt.Errorf("exec: no field %q in %s", ex.Name, st)
		}
		if st.IsUnion {
			return lval{c: base, uField: st.Fields[i].Type, vecIdx: -1}, nil
		}
		return directLV(base.Kids[i]), nil
	case *ast.Swizzle:
		blv, err := t.evalLV(ex.Base)
		if err != nil {
			return lval{}, err
		}
		idx := cltypes.SwizzleIndices(ex.Sel)
		if len(idx) != 1 {
			return lval{}, fmt.Errorf("exec: multi-component swizzle is not assignable")
		}
		if blv.uField != nil || blv.vecIdx >= 0 || blv.flat != nil {
			return lval{}, fmt.Errorf("exec: cannot swizzle a view lvalue")
		}
		return lval{c: blv.c, vecIdx: idx[0]}, nil
	}
	return lval{}, fmt.Errorf("exec: expression %T is not an lvalue", e)
}

// lvPtr converts an lvalue into a pointer value for AddrOf.
func (t *thread) lvPtr(e ast.Expr) (Ptr, error) {
	// &a[i] over an array or buffer yields a sliceable pointer so that
	// subsequent subscripting works.
	if ix, ok := e.(*ast.Index); ok {
		var iv Value
		if err := t.evalExpr(ix.Idx, &iv); err != nil {
			return Ptr{}, err
		}
		is := iv.T.(*cltypes.Scalar)
		idx := int(cltypes.AsInt64(iv.Scalar, is))
		if _, isPtr := ix.Base.Type().(*cltypes.Pointer); isPtr {
			var bv Value
			if err := t.evalExpr(ix.Base, &bv); err != nil {
				return Ptr{}, err
			}
			return bv.Ptr.At(idx), nil
		}
		blv, err := t.evalLV(ix.Base)
		if err != nil {
			return Ptr{}, err
		}
		if blv.c != nil && blv.uField == nil && blv.vecIdx < 0 {
			if idx < 0 || idx >= len(blv.c.Kids) {
				return Ptr{}, &CrashError{Msg: "address of out-of-bounds element"}
			}
			return Ptr{Slice: blv.c.Kids, Idx: idx}, nil
		}
		return Ptr{}, fmt.Errorf("exec: cannot take element address of view lvalue")
	}
	lv, err := t.evalLV(e)
	if err != nil {
		return Ptr{}, err
	}
	if lv.uField != nil || lv.vecIdx >= 0 {
		return Ptr{}, fmt.Errorf("exec: cannot take the address of a union field or vector component")
	}
	// A flat-buffer element's address is a flat-store pointer.
	if lv.flat != nil {
		return Ptr{Flat: lv.flat, Idx: lv.wIdx}, nil
	}
	// Arrays decay to element pointers.
	if _, isArr := lv.c.Typ.(*cltypes.Array); isArr {
		return Ptr{Slice: lv.c.Kids, Idx: 0}, nil
	}
	return Ptr{Cell: lv.c}, nil
}
