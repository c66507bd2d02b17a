package code

import (
	"fmt"
	"strings"

	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
)

// Lower compiles a checked (and possibly optimized) program into the
// register bytecode. The input AST is read-only — lowering never writes
// to it — so the same checked program may be lowered while other
// goroutines execute it.
//
// Lowering is total over the generator's subset; a construct the lowerer
// cannot express (or one the tree walker would reject at runtime anyway)
// returns an error, which the device layer reports as a build failure.
// Fuel accounting is mirrored instruction by instruction: each Instr's
// Cost is the number of tree-walker step() calls it stands for, so
// Timeout outcomes are identical between the engines.
func Lower(prog *ast.Program) (p *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			if lf, ok := r.(lowerFail); ok {
				p, err = nil, fmt.Errorf("code: %s", string(lf))
				return
			}
			panic(r)
		}
	}()
	l := &lowerer{
		prog:    prog,
		fnIdx:   map[string]int{},
		globals: map[string]int{},
	}
	for i, g := range prog.Globals {
		l.globals[g.Name] = i // later declarations shadow, like the globals map
	}
	out := &Program{Kernel: -1}
	for _, f := range prog.Funcs {
		if f.Body == nil {
			continue
		}
		l.fnIdx[f.Name] = len(out.Fns) // last definition wins, like Machine.funcs
		out.Fns = append(out.Fns, nil) // reserve the index for recursion
	}
	for _, f := range prog.Funcs {
		if f.Body == nil {
			continue
		}
		fn := l.lowerFn(f)
		fn.Idx = int32(l.fnIdx[f.Name])
		out.Fns[l.fnIdx[f.Name]] = fn
		if f.IsKernel && out.Kernel < 0 {
			out.Kernel = l.fnIdx[f.Name]
		}
	}
	if out.Kernel < 0 {
		return nil, fmt.Errorf("code: program has no kernel")
	}
	return out, nil
}

// lowerFail aborts lowering via panic; Lower recovers it into an error.
type lowerFail string

func fail(format string, args ...any) {
	panic(lowerFail(fmt.Sprintf(format, args...)))
}

type lowerer struct {
	prog    *ast.Program
	fnIdx   map[string]int
	globals map[string]int
}

// binding is one statically resolved name in a lexical scope.
type binding struct {
	name string
	slot int32
}

// loopCtx collects the jump patches of one enclosing loop.
type loopCtx struct {
	breaks    []int // patch to the OpLoopExit pc
	continues []int // patch to the continue target
}

type fnLowerer struct {
	l      *lowerer
	decl   *ast.FuncDecl
	code   []Instr
	scopes [][]binding
	params map[string]bool
	loops  []loopCtx

	slots  int32
	regMax int32
	lvMax  int32
	lvTop  int32
}

func (l *lowerer) lowerFn(f *ast.FuncDecl) *Fn {
	fl := &fnLowerer{l: l, decl: f, params: map[string]bool{}}
	fl.pushScope() // the function frame: parameters
	for _, p := range f.Params {
		s := fl.newSlot()
		fl.bind(p.Name, s)
		fl.params[p.Name] = true
	}
	fl.pushScope() // the body block scope
	for _, s := range f.Body.Stmts {
		fl.lowerStmt(s)
	}
	fl.popScope()
	fl.popScope()
	fl.emit(Instr{Op: OpReturnEnd})
	return &Fn{
		Name:     f.Name,
		Decl:     f,
		Code:     fl.code,
		NumRegs:  int(fl.regMax),
		NumLVs:   int(fl.lvMax),
		NumSlots: int(fl.slots),
	}
}

// ---- emission helpers ----

func (fl *fnLowerer) emit(in Instr) int {
	fl.code = append(fl.code, in)
	return len(fl.code) - 1
}

func (fl *fnLowerer) patch(pc int) { fl.code[pc].A = int32(len(fl.code)) }

func (fl *fnLowerer) here() int32 { return int32(len(fl.code)) }

// reg notes that value register r is in use, growing the frame size.
func (fl *fnLowerer) reg(r int32) int32 {
	if r+1 > fl.regMax {
		fl.regMax = r + 1
	}
	return r
}

// allocLV reserves the next lvalue register.
func (fl *fnLowerer) allocLV() int32 {
	v := fl.lvTop
	fl.lvTop++
	if fl.lvTop > fl.lvMax {
		fl.lvMax = fl.lvTop
	}
	return v
}

func (fl *fnLowerer) freeLV() { fl.lvTop-- }

func (fl *fnLowerer) newSlot() int32 {
	s := fl.slots
	fl.slots++
	return s
}

func (fl *fnLowerer) pushScope() { fl.scopes = append(fl.scopes, nil) }
func (fl *fnLowerer) popScope()  { fl.scopes = fl.scopes[:len(fl.scopes)-1] }

func (fl *fnLowerer) bind(name string, slot int32) {
	top := len(fl.scopes) - 1
	fl.scopes[top] = append(fl.scopes[top], binding{name: name, slot: slot})
}

// resolve finds the frame slot of a name (newest binding first, mirroring
// the evaluator's scope scan), or the program-global index.
func (fl *fnLowerer) resolve(name string) (slot int32, global int32, ok bool) {
	for si := len(fl.scopes) - 1; si >= 0; si-- {
		sc := fl.scopes[si]
		for i := len(sc) - 1; i >= 0; i-- {
			if sc[i].name == name {
				return sc[i].slot, -1, true
			}
		}
	}
	if gi, gok := fl.l.globals[name]; gok {
		return -1, int32(gi), true
	}
	return -1, -1, false
}

// ---- statements ----

// lowerStmt lowers one statement and folds the execStmt fuel charge (plus
// the extra statement-position assignment charge) into the first emitted
// instruction, preserving the tree walker's exact fuel totals.
func (fl *fnLowerer) lowerStmt(s ast.Stmt) {
	start := len(fl.code)
	bump := uint8(1)
	switch st := s.(type) {
	case *ast.DeclStmt:
		fl.lowerDecl(st.Decl)
	case *ast.ExprStmt:
		if asn, ok := st.X.(*ast.AssignExpr); ok {
			bump = 2 // execStmt charge + the step evalExpr would have charged
			fl.lowerAssign(asn, 0, true)
		} else {
			fl.lowerExpr(st.X, fl.reg(0))
		}
	case *ast.Block:
		fl.emit(Instr{Op: OpStep})
		fl.pushScope()
		for _, inner := range st.Stmts {
			fl.lowerStmt(inner)
		}
		fl.popScope()
	case *ast.If:
		fl.lowerExpr(st.Cond, fl.reg(0))
		br := fl.emit(Instr{Op: OpBranchFalse, Dst: 0})
		fl.pushScope()
		for _, inner := range st.Then.Stmts {
			fl.lowerStmt(inner)
		}
		fl.popScope()
		if st.Else != nil {
			j := fl.emit(Instr{Op: OpJump})
			fl.patch(br)
			fl.lowerStmt(st.Else)
			fl.patch(j)
		} else {
			fl.patch(br)
		}
	case *ast.For:
		fl.lowerFor(st)
	case *ast.While:
		fl.lowerLoop(nil, st.Cond, nil, st.Body, false, nil)
	case *ast.DoWhile:
		fl.lowerLoop(nil, st.Cond, nil, st.Body, true, nil)
	case *ast.Break:
		if len(fl.loops) == 0 {
			fail("break outside loop")
		}
		top := len(fl.loops) - 1
		fl.loops[top].breaks = append(fl.loops[top].breaks, fl.emit(Instr{Op: OpJump}))
	case *ast.Continue:
		if len(fl.loops) == 0 {
			fail("continue outside loop")
		}
		top := len(fl.loops) - 1
		fl.loops[top].continues = append(fl.loops[top].continues, fl.emit(Instr{Op: OpJump}))
	case *ast.Return:
		if st.X != nil {
			fl.lowerExpr(st.X, fl.reg(0))
			fl.emit(Instr{Op: OpReturn, A: 0})
		} else {
			fl.emit(Instr{Op: OpReturnVoid})
		}
	case *ast.Empty:
		fl.emit(Instr{Op: OpStep})
	default:
		fail("unknown statement %T", s)
	}
	fl.code[start].Cost += bump
}

func (fl *fnLowerer) lowerFor(st *ast.For) {
	if _, isDecl := st.Init.(*ast.DeclStmt); isDecl {
		fl.pushScope()
		defer fl.popScope()
	}
	if st.Init != nil {
		fl.lowerStmt(st.Init)
	} else {
		// No init clause: the For statement's charge still needs a first
		// instruction; OpLoopEnter takes it via the caller's bump.
	}
	fl.lowerLoop(st, st.Cond, st.Post, st.Body, false, fl.deadLoopInfo(st))
}

// lowerLoop emits the shared loop protocol, mirroring execLoopBody:
//
//	OpLoopEnter
//	L: [cond] BranchFalse->X  (do-while: first iteration skips this)
//	   OpLoopIter              (the per-iteration step charge)
//	   body
//	C: [post] Jump L           (do-while: cond twice, as the tree does)
//	X: OpLoopExit
func (fl *fnLowerer) lowerLoop(forNode *ast.For, cond ast.Expr, post ast.Expr, body *ast.Block, doFirst bool, le *LoopExit) {
	fl.emit(Instr{Op: OpLoopEnter})
	fl.loops = append(fl.loops, loopCtx{})
	var exits []int
	var contTarget int32
	if doFirst {
		top := fl.here()
		fl.emit(Instr{Op: OpLoopIter, Cost: 1})
		fl.pushScope()
		for _, inner := range body.Stmts {
			fl.lowerStmt(inner)
		}
		fl.popScope()
		// The tree walker's loop protocol evaluates a do-while condition
		// at the loop bottom and then again at the loop top; both
		// evaluations (and their fuel) are replicated here.
		contTarget = fl.here()
		if cond != nil {
			fl.lowerExpr(cond, fl.reg(0))
			exits = append(exits, fl.emit(Instr{Op: OpBranchFalse, Dst: 0}))
			fl.lowerExpr(cond, fl.reg(0))
			exits = append(exits, fl.emit(Instr{Op: OpBranchFalse, Dst: 0}))
		}
		fl.emit(Instr{Op: OpJump, A: top})
	} else {
		top := fl.here()
		if cond != nil {
			fl.lowerExpr(cond, fl.reg(0))
			exits = append(exits, fl.emit(Instr{Op: OpBranchFalse, Dst: 0}))
		}
		fl.emit(Instr{Op: OpLoopIter, Cost: 1})
		fl.pushScope()
		for _, inner := range body.Stmts {
			fl.lowerStmt(inner)
		}
		fl.popScope()
		contTarget = fl.here()
		if post != nil {
			fl.lowerExpr(post, fl.reg(0))
		}
		fl.emit(Instr{Op: OpJump, A: top})
	}
	exitPC := fl.here()
	var aux any
	if le != nil {
		aux = le
	}
	fl.emit(Instr{Op: OpLoopExit, Aux: aux})
	lc := fl.loops[len(fl.loops)-1]
	fl.loops = fl.loops[:len(fl.loops)-1]
	for _, pc := range exits {
		fl.code[pc].A = exitPC
	}
	for _, pc := range lc.breaks {
		fl.code[pc].A = exitPC
	}
	for _, pc := range lc.continues {
		fl.code[pc].A = contTarget
	}
}

// deadLoopInfo resolves the Figure 2(d) dead-loop-with-barrier defect
// shape for a for loop: a body containing a barrier and an init clause
// that is a plain assignment. The destination must be a statically
// resolvable variable or an arrow member of one (the only shapes the
// generator emits); anything else aborts lowering, and the device layer
// reports the program as a build failure.
func (fl *fnLowerer) deadLoopInfo(st *ast.For) *LoopExit {
	es, ok := st.Init.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	asn, ok := es.X.(*ast.AssignExpr)
	if !ok {
		return nil
	}
	if !ContainsBarrier(st.Body) {
		return nil
	}
	var vr *ast.VarRef
	le := &LoopExit{}
	switch lhs := asn.LHS.(type) {
	case *ast.VarRef:
		vr = lhs
	case *ast.Member:
		base, ok := lhs.Base.(*ast.VarRef)
		if !ok || !lhs.Arrow {
			fail("dead-loop defect init assigns an inexpressible lvalue")
		}
		vr = base
		le.Arrow = true
		le.Field = int32(lhs.FieldIdx) - 1
		le.Name = lhs.Name
	default:
		fail("dead-loop defect init assigns an inexpressible lvalue")
	}
	slot, global, ok := fl.resolve(vr.Name)
	if !ok {
		fail("undefined variable %q", vr.Name)
	}
	le.Slot, le.Global = slot, global
	return le
}

func (fl *fnLowerer) lowerDecl(d *ast.VarDecl) {
	slot := fl.newSlot()
	if d.Space == cltypes.Local {
		fl.emit(Instr{Op: OpBindLocal, A: slot, Aux: d})
		fl.bind(d.Name, slot)
		return
	}
	fl.emit(Instr{Op: OpDeclare, A: slot, Aux: d.Type})
	if d.Init != nil {
		fl.lowerInit(d.Type, d.Init, fl.reg(0))
		fl.emit(Instr{Op: OpStoreDecl, A: slot, B: 0})
	}
	// The name binds after its initializer runs, like the evaluator's
	// define-after-evalInit order: `int x = x;` reads the outer x.
	fl.bind(d.Name, slot)
}

// lowerInit lowers an initializer (possibly a braced aggregate list)
// against the declared type, mirroring evalInit: aggregate cells are
// built with zero-cost ops, element expressions charge their own fuel.
func (fl *fnLowerer) lowerInit(typ cltypes.Type, init ast.Expr, dst int32) {
	il, ok := init.(*ast.InitList)
	if !ok {
		fl.lowerExpr(init, dst)
		if s, ok := typ.(*cltypes.Scalar); ok {
			fl.emit(Instr{Op: OpConvertFree, Dst: dst, Aux: s})
		}
		return
	}
	switch tt := typ.(type) {
	case *cltypes.Scalar:
		if len(il.Elems) != 1 {
			fail("bad scalar initializer")
		}
		fl.lowerInit(typ, il.Elems[0], dst)
	case *cltypes.Array:
		if len(il.Elems) > tt.Len {
			fail("array initializer arity overflow")
		}
		fl.emit(Instr{Op: OpNewAgg, Dst: dst, Aux: typ})
		for i, el := range il.Elems {
			fl.lowerInit(tt.Elem, el, fl.reg(dst+1))
			fl.emit(Instr{Op: OpInitField, Dst: int32(i), A: dst, B: dst + 1})
		}
	case *cltypes.StructT:
		fl.emit(Instr{Op: OpNewAgg, Dst: dst, Aux: typ})
		if tt.IsUnion {
			if len(il.Elems) == 1 {
				fl.lowerInit(tt.Fields[0].Type, il.Elems[0], fl.reg(dst+1))
				fl.emit(Instr{Op: OpInitUnion, A: dst, B: dst + 1})
			}
			return
		}
		if len(il.Elems) > len(tt.Fields) {
			fail("struct initializer arity overflow")
		}
		for i, el := range il.Elems {
			fl.lowerInit(tt.Fields[i].Type, el, fl.reg(dst+1))
			fl.emit(Instr{Op: OpInitField, Dst: int32(i), A: dst, B: dst + 1})
		}
		fl.emit(Instr{Op: OpInitStructDefect, A: dst})
	default:
		fail("bad initializer for %s", typ)
	}
}

// ---- expressions ----

// lowerExpr lowers e so that its value lands in register dst; registers
// above dst are scratch. The op carrying the node's evalExpr step charge
// has Cost 1; every other emitted op is free, matching the tree walker.
func (fl *fnLowerer) lowerExpr(e ast.Expr, dst int32) {
	fl.reg(dst)
	switch ex := e.(type) {
	case *ast.IntLit:
		st, ok := ex.Type().(*cltypes.Scalar)
		if !ok {
			st = cltypes.TInt
		}
		fl.emit(Instr{Op: OpConst, Cost: 1, Dst: dst, Aux: &ConstVal{T: st, V: cltypes.Trunc(ex.Val, st)}})

	case *ast.VarRef:
		if slot, global, ok := fl.resolve(ex.Name); ok {
			if slot >= 0 {
				fl.emit(Instr{Op: OpLoadVar, Cost: 1, Dst: dst, A: slot})
			} else {
				fl.emit(Instr{Op: OpLoadGlobal, Cost: 1, Dst: dst, A: global})
			}
			return
		}
		switch ex.Name {
		case "CLK_LOCAL_MEM_FENCE":
			fl.emit(Instr{Op: OpPredef, Cost: 1, Dst: dst, A: 1})
		case "CLK_GLOBAL_MEM_FENCE":
			fl.emit(Instr{Op: OpPredef, Cost: 1, Dst: dst, A: 2})
		default:
			fail("undefined variable %q", ex.Name)
		}

	case *ast.Unary:
		fl.lowerUnary(ex, dst)

	case *ast.Binary:
		fl.lowerBinary(ex, dst)

	case *ast.AssignExpr:
		fl.lowerAssign(ex, dst, false)

	case *ast.Cond:
		fl.lowerExpr(ex.C, dst)
		br := fl.emit(Instr{Op: OpBranchFalse, Cost: 1, Dst: dst})
		fl.lowerExpr(ex.T, dst)
		j := fl.emit(Instr{Op: OpJump})
		fl.patch(br)
		fl.lowerExpr(ex.F, dst)
		fl.patch(j)
		fl.emit(Instr{Op: OpCondFin, Dst: dst, Aux: ex.Type()})

	case *ast.Call:
		fl.lowerCall(ex, dst)

	case *ast.Index, *ast.Member:
		lv := fl.allocLV()
		fl.lowerLV(e, lv, dst)
		fl.emit(Instr{Op: OpLVLoad, Cost: 1, Dst: dst, A: lv})
		fl.freeLV()

	case *ast.Swizzle:
		fl.lowerExpr(ex.Base, dst)
		fl.emit(Instr{Op: OpSwizzle, Cost: 1, Dst: dst, A: dst, Aux: cltypes.SwizzleIndices(ex.Sel)})

	case *ast.VecLit:
		for i, el := range ex.Elems {
			fl.lowerExpr(el, fl.reg(dst+int32(i)))
		}
		fl.emit(Instr{Op: OpVecLit, Cost: 1, Dst: dst, A: dst, B: int32(len(ex.Elems)), Aux: ex.VT})

	case *ast.Cast:
		fl.lowerExpr(ex.X, dst)
		fl.emit(Instr{Op: OpCast, Cost: 1, Dst: dst, A: dst, Aux: ex.To})

	default:
		fail("unknown expression %T", e)
	}
}

func (fl *fnLowerer) lowerUnary(ex *ast.Unary, dst int32) {
	switch ex.Op {
	case ast.AddrOf:
		fl.lowerAddrOf(ex, dst)
	case ast.Deref:
		fl.lowerExpr(ex.X, dst)
		fl.emit(Instr{Op: OpDeref, Cost: 1, Dst: dst, A: dst})
	case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
		lv := fl.allocLV()
		fl.lowerLV(ex.X, lv, dst)
		fl.emit(Instr{Op: OpIncDec, Cost: 1, Dst: dst, A: lv, B: int32(ex.Op)})
		fl.freeLV()
	default:
		fl.lowerExpr(ex.X, dst)
		fl.emit(Instr{Op: OpUnary, Cost: 1, Dst: dst, A: dst, B: int32(ex.Op), Aux: ex.Type()})
	}
}

// lowerAddrOf mirrors lvPtr: &a[i] over a pointer or array yields a
// sliceable pointer; other lvalues convert via OpAddrLV (flat element,
// array decay, direct cell).
func (fl *fnLowerer) lowerAddrOf(ex *ast.Unary, dst int32) {
	if ix, ok := ex.X.(*ast.Index); ok {
		fl.lowerExpr(ix.Idx, dst)
		if _, isPtr := ix.Base.Type().(*cltypes.Pointer); isPtr {
			fl.lowerExpr(ix.Base, fl.reg(dst+1))
			fl.emit(Instr{Op: OpPtrAt, Cost: 1, Dst: dst, A: dst + 1, B: dst, Aux: ex.Type()})
			return
		}
		lv := fl.allocLV()
		fl.lowerLV(ix.Base, lv, fl.reg(dst+1))
		fl.emit(Instr{Op: OpAddrElem, Cost: 1, Dst: dst, A: lv, B: dst, Aux: ex.Type()})
		fl.freeLV()
		return
	}
	lv := fl.allocLV()
	fl.lowerLV(ex.X, lv, dst)
	fl.emit(Instr{Op: OpAddrLV, Cost: 1, Dst: dst, A: lv, Aux: ex.Type()})
	fl.freeLV()
}

func (fl *fnLowerer) lowerBinary(ex *ast.Binary, dst int32) {
	if ex.Op == ast.Comma {
		fl.lowerExpr(ex.L, dst)
		fl.lowerExpr(ex.R, dst)
		fl.emit(Instr{Op: OpComma, Cost: 1, Dst: dst})
		return
	}
	if ex.Op == ast.LAnd || ex.Op == ast.LOr {
		if _, ok := ex.Type().(*cltypes.Vector); !ok {
			kind := int32(0)
			if ex.Op == ast.LOr {
				kind = 1
			}
			fl.lowerExpr(ex.L, dst)
			tst := fl.emit(Instr{Op: OpBoolTest, Cost: 1, Dst: dst, B: kind})
			fl.lowerExpr(ex.R, dst)
			fl.emit(Instr{Op: OpBoolFin, Dst: dst})
			fl.patch(tst)
			return
		}
	}
	fl.lowerExpr(ex.L, fl.reg(dst+1))
	fl.lowerExpr(ex.R, fl.reg(dst+2))
	fl.emit(Instr{Op: OpBinary, Cost: 1, Dst: dst, A: dst + 1, B: dst + 2, Aux: &BinInfo{Op: ex.Op, RT: ex.Type()}})
}

// lowerAssign mirrors evalAssignStore: the destination lvalue resolves
// first, then the RHS evaluates, then the store applies its defect
// models. stmt marks statement position (no result reload; the caller
// folds the extra fuel charge).
func (fl *fnLowerer) lowerAssign(ex *ast.AssignExpr, dst int32, stmt bool) {
	fl.reg(dst)
	lv := fl.allocLV()
	fl.lowerLV(ex.LHS, lv, dst)
	fl.lowerExpr(ex.RHS, dst)
	si := &StoreInfo{Op: ex.Op}
	if u, ok := ex.LHS.(*ast.Unary); ok && u.Op == ast.Deref {
		if vr, ok := u.X.(*ast.VarRef); ok && fl.params[vr.Name] {
			si.DerefParam = true
		}
	}
	if m, ok := ex.LHS.(*ast.Member); ok && m.Arrow {
		if vr, ok := m.Base.(*ast.VarRef); ok && fl.params[vr.Name] {
			si.ArrowParam = true
		}
	}
	in := Instr{Op: OpStore, A: lv, B: dst, Aux: si}
	if stmt {
		in.Dst = -1
	} else {
		in.Cost = 1 // the AssignExpr node's evalExpr charge
		in.Dst = dst
	}
	fl.emit(in)
	fl.freeLV()
}

// lowerLV lowers an lvalue expression into lvalue register lvdst, using
// value registers from rtop upward for subexpressions. All OpLV* ops are
// fuel-free, like evalLV; only embedded value evaluations charge.
func (fl *fnLowerer) lowerLV(e ast.Expr, lvdst int32, rtop int32) {
	if lvdst+1 > fl.lvMax {
		fl.lvMax = lvdst + 1
	}
	switch ex := e.(type) {
	case *ast.VarRef:
		slot, global, ok := fl.resolve(ex.Name)
		if !ok {
			fail("undefined variable %q", ex.Name)
		}
		if slot >= 0 {
			fl.emit(Instr{Op: OpLVSlot, Dst: lvdst, A: slot})
		} else {
			fl.emit(Instr{Op: OpLVGlobal, Dst: lvdst, A: global})
		}
	case *ast.Unary:
		if ex.Op != ast.Deref {
			fail("expression %T is not an lvalue", e)
		}
		fl.lowerExpr(ex.X, fl.reg(rtop))
		fl.emit(Instr{Op: OpLVDeref, Dst: lvdst, A: rtop})
	case *ast.Index:
		fl.lowerExpr(ex.Idx, fl.reg(rtop))
		if _, isPtr := ex.Base.Type().(*cltypes.Pointer); isPtr {
			fl.lowerExpr(ex.Base, fl.reg(rtop+1))
			fl.emit(Instr{Op: OpLVPtrIndex, Dst: lvdst, A: rtop + 1, B: rtop})
			return
		}
		fl.lowerLV(ex.Base, lvdst, rtop+1)
		fl.emit(Instr{Op: OpLVIndex, Dst: lvdst, A: lvdst, B: rtop})
	case *ast.Member:
		mi := &MemberInfo{Idx: int32(ex.FieldIdx) - 1, Name: ex.Name}
		if ex.Arrow {
			fl.lowerExpr(ex.Base, fl.reg(rtop))
			fl.emit(Instr{Op: OpLVArrow, Dst: lvdst, A: rtop, Aux: mi})
			return
		}
		fl.lowerLV(ex.Base, lvdst, rtop)
		fl.emit(Instr{Op: OpLVMember, Dst: lvdst, A: lvdst, Aux: mi})
	case *ast.Swizzle:
		idx := cltypes.SwizzleIndices(ex.Sel)
		if len(idx) != 1 {
			fail("multi-component swizzle is not assignable")
		}
		fl.lowerLV(ex.Base, lvdst, rtop)
		fl.emit(Instr{Op: OpLVSwizzle, Dst: lvdst, A: lvdst, B: int32(idx[0])})
	default:
		fail("expression %T is not an lvalue", e)
	}
}

// mathBuiltins is the evalMath dispatch set.
var mathBuiltins = map[string]bool{
	"safe_add": true, "safe_sub": true, "safe_mul": true, "safe_div": true,
	"safe_mod": true, "safe_lshift": true, "safe_rshift": true,
	"safe_unary_minus": true, "safe_clamp": true, "clamp": true,
	"rotate": true, "min": true, "max": true, "abs": true, "add_sat": true,
	"sub_sat": true, "hadd": true, "mul_hi": true, "popcount": true, "clz": true,
}

func (fl *fnLowerer) lowerCall(ex *ast.Call, dst int32) {
	switch ex.Name {
	case "get_global_id", "get_local_id", "get_group_id",
		"get_global_size", "get_local_size", "get_num_groups":
		fl.lowerExpr(ex.Args[0], dst)
		fl.emit(Instr{Op: OpIdBuiltin, Cost: 1, Dst: dst, A: dst, Aux: ex.Name})
		return
	case "get_work_dim":
		fl.emit(Instr{Op: OpWorkDim, Cost: 1, Dst: dst})
		return
	case "get_linear_global_id":
		fl.emit(Instr{Op: OpLinearId, Cost: 1, Dst: dst, B: 0})
		return
	case "get_linear_local_id":
		fl.emit(Instr{Op: OpLinearId, Cost: 1, Dst: dst, B: 1})
		return
	case "get_linear_group_id":
		fl.emit(Instr{Op: OpLinearId, Cost: 1, Dst: dst, B: 2})
		return
	case "barrier":
		fl.lowerExpr(ex.Args[0], dst)
		fl.emit(Instr{Op: OpBarrier, Cost: 1, Dst: dst, A: dst, Aux: ast.Node(ex)})
		return
	case "crc64":
		fl.lowerExpr(ex.Args[0], dst)
		fl.lowerExpr(ex.Args[1], fl.reg(dst+1))
		fl.emit(Instr{Op: OpCrc64, Cost: 1, Dst: dst, A: dst, B: dst + 1})
		return
	case "vcrc":
		fl.lowerExpr(ex.Args[0], dst)
		fl.lowerExpr(ex.Args[1], fl.reg(dst+1))
		fl.emit(Instr{Op: OpVcrc, Cost: 1, Dst: dst, A: dst, B: dst + 1})
		return
	}
	if strings.HasPrefix(ex.Name, "atomic_") {
		if len(ex.Args) < 1 || len(ex.Args) > 3 {
			fail("bad atomic arity")
		}
		for i, a := range ex.Args {
			fl.lowerExpr(a, fl.reg(dst+int32(i)))
		}
		fl.emit(Instr{Op: OpAtomic, Cost: 1, Dst: dst, A: dst, B: int32(len(ex.Args) - 1), Aux: ex.Name})
		return
	}
	if mathBuiltins[ex.Name] {
		for i, a := range ex.Args {
			fl.lowerExpr(a, fl.reg(dst+int32(i)))
		}
		fl.emit(Instr{Op: OpMath, Cost: 1, Dst: dst, A: dst, B: int32(len(ex.Args)), Aux: &MathInfo{Name: ex.Name, RT: ex.Type()}})
		return
	}
	if strings.HasPrefix(ex.Name, "convert_") {
		fl.lowerExpr(ex.Args[0], dst)
		fl.emit(Instr{Op: OpConvert, Cost: 1, Dst: dst, A: dst, Aux: ex.Type()})
		return
	}
	// User call: arguments are evaluated and bound one at a time, like
	// evalUserCall's immediate parameter binding.
	idx, ok := fl.l.fnIdx[ex.Name]
	if !ok {
		fail("call to undefined function %q", ex.Name)
	}
	callee := fl.l.prog.Func(ex.Name)
	if callee == nil || len(ex.Args) != len(callee.Params) {
		fail("call arity mismatch for %q", ex.Name)
	}
	fl.emit(Instr{Op: OpCallPrep, Cost: 1, A: int32(idx)})
	for i, p := range callee.Params {
		fl.lowerExpr(ex.Args[i], dst)
		fl.emit(Instr{Op: OpBindArg, A: dst, B: int32(i), Aux: p.Type})
	}
	fl.emit(Instr{Op: OpCall, Dst: dst, A: int32(idx)})
}

// ContainsBarrier reports whether the statement tree issues a barrier
// call, the static half of the Figure 2(d) defect trigger (the tree
// walker computes this at loop exit; the lowerer resolves it once).
func ContainsBarrier(s ast.Stmt) bool {
	found := false
	var walkS func(ast.Stmt)
	var walkE func(ast.Expr)
	walkE = func(e ast.Expr) {
		if e == nil || found {
			return
		}
		switch ex := e.(type) {
		case *ast.Call:
			if ex.Name == "barrier" {
				found = true
				return
			}
			for _, a := range ex.Args {
				walkE(a)
			}
		case *ast.Unary:
			walkE(ex.X)
		case *ast.Binary:
			walkE(ex.L)
			walkE(ex.R)
		case *ast.AssignExpr:
			walkE(ex.LHS)
			walkE(ex.RHS)
		case *ast.Cond:
			walkE(ex.C)
			walkE(ex.T)
			walkE(ex.F)
		case *ast.Index:
			walkE(ex.Base)
			walkE(ex.Idx)
		case *ast.Member:
			walkE(ex.Base)
		case *ast.Swizzle:
			walkE(ex.Base)
		case *ast.VecLit:
			for _, el := range ex.Elems {
				walkE(el)
			}
		case *ast.Cast:
			walkE(ex.X)
		case *ast.InitList:
			for _, el := range ex.Elems {
				walkE(el)
			}
		}
	}
	walkS = func(s ast.Stmt) {
		if s == nil || found {
			return
		}
		switch st := s.(type) {
		case *ast.DeclStmt:
			walkE(st.Decl.Init)
		case *ast.ExprStmt:
			walkE(st.X)
		case *ast.Block:
			for _, inner := range st.Stmts {
				walkS(inner)
			}
		case *ast.If:
			walkE(st.Cond)
			walkS(st.Then)
			walkS(st.Else)
		case *ast.For:
			walkS(st.Init)
			walkE(st.Cond)
			walkE(st.Post)
			walkS(st.Body)
		case *ast.While:
			walkE(st.Cond)
			walkS(st.Body)
		case *ast.DoWhile:
			walkS(st.Body)
			walkE(st.Cond)
		case *ast.Return:
			walkE(st.X)
		}
	}
	walkS(s)
	return found
}
