package exec

import (
	"fmt"
	"sync/atomic"

	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/code"
)

// Engine names an evaluation engine. The executor itself runs the VM
// exactly when a launch carries bytecode (Options.Code); hosts resolve an
// Engine to that choice (see device.RunOptions.Engine).
type Engine uint8

// Engines. EngineAuto defers to the process-wide default (the register
// VM unless CLFUZZ_ENGINE says otherwise); the two explicit values force
// one engine for determinism testing and for guarding the reference
// interpreter from rot.
const (
	EngineAuto Engine = iota
	EngineTree
	EngineVM
)

// String returns the flag spelling of the engine.
func (e Engine) String() string {
	switch e {
	case EngineTree:
		return "tree"
	case EngineVM:
		return "vm"
	}
	return "auto"
}

// ParseEngine parses an engine name as spelled in CLFUZZ_ENGINE.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "tree":
		return EngineTree, nil
	case "vm":
		return EngineVM, nil
	}
	return EngineAuto, fmt.Errorf("exec: unknown engine %q (want tree, vm, or auto)", s)
}

// SemanticsTag names the evaluation semantics a persisted launch result
// depends on: the resolved engine and a revision prefix bumped whenever
// either engine's observable behaviour changes. The disk result store
// stamps every entry with this tag and never serves an entry written
// under a different one, so semantics changes invalidate stale results
// by construction instead of by deleting store directories. Auto is a
// legitimate tag value: launch results are pinned byte-identical across
// engines, but explicit and Auto selections never alias, which keeps
// the engine-comparison suites honest across processes.
func SemanticsTag(e Engine) string {
	return "sem1/" + e.String()
}

// Process-wide engine counters, reported by EngineCounters: which engine
// executed each launch, and how many bytecode instructions the VM
// dispatched. Campaign tools snapshot them so cross-machine comparisons
// record which engine produced the numbers.
var (
	vmLaunches     atomic.Int64
	treeLaunches   atomic.Int64
	vmInstructions atomic.Int64
)

// EngineCounters reports the cumulative per-process engine counters: the
// number of launches executed by the VM and by the tree walker, and the
// total bytecode instructions the VM dispatched.
func EngineCounters() (vmRuns, treeRuns, instructions int64) {
	return vmLaunches.Load(), treeLaunches.Load(), vmInstructions.Load()
}

// vmFrame is one activation record: the lowered function, its variable
// slots, and the bases of its value/lvalue register windows within the
// shared stacks.
type vmFrame struct {
	fn       *code.Fn
	slots    []*Cell
	regBase  int
	lvBase   int
	slotBase int
	retPC    int
	retDst   int32
	iterBase int
}

// vmPending is a callee frame under construction: OpCallPrep allocates
// it, OpBindArg fills its parameter cells one evaluated argument at a
// time (matching the tree walker's immediate binding), and OpCall
// activates it.
type vmPending struct {
	fn       *code.Fn
	slots    []*Cell
	slotBase int
}

// vmState holds the register stacks of one VM execution. The sequential
// per-group path shares one vmState across the group's threads (they run
// back-to-back on one goroutine), so the stacks amortize across
// work-items; the barrier path gives each thread its own.
type vmState struct {
	regs      []Value
	lvs       []lval
	slotStack []*Cell
	frames    []vmFrame
	pending   []vmPending
}

func (vm *vmState) reset() {
	vm.frames = vm.frames[:0]
	vm.pending = vm.pending[:0]
	vm.slotStack = vm.slotStack[:0]
}

// grabSlots reserves n slot entries on the LIFO slot stack. Frames and
// pending calls release back to their recorded base on return, so the
// stack discipline matches the call structure exactly.
func (vm *vmState) grabSlots(n int) (s []*Cell, base int) {
	base = len(vm.slotStack)
	for len(vm.slotStack) < base+n {
		vm.slotStack = append(vm.slotStack, nil)
	}
	return vm.slotStack[base : base+n : base+n], base
}

func (vm *vmState) ensureRegs(n int) {
	for len(vm.regs) < n {
		vm.regs = append(vm.regs, Value{})
	}
}

func (vm *vmState) ensureLVs(n int) {
	for len(vm.lvs) < n {
		vm.lvs = append(vm.lvs, lval{})
	}
}

// runVMKernel executes the thread's kernel on the register VM. The
// semantics — including fuel accounting, defect models, barrier tokens,
// and every error message — mirror runKernel's tree walk; the lowered
// program pre-resolves names to slots and call targets to indices so the
// dispatch loop never consults the AST.
func (t *thread) runVMKernel() error {
	vm := t.vm
	if vm == nil {
		vm = &vmState{}
		t.vm = vm
	}
	vm.reset()
	p := t.m.code
	kf := p.Fns[p.Kernel]
	slots, slotBase := vm.grabSlots(kf.NumSlots)
	for i, par := range t.m.kernel.Params {
		arg := t.m.args[par.Name]
		c := t.newPrivCell(par.Type)
		if _, ok := par.Type.(*cltypes.Pointer); ok {
			if arg.Buf == nil {
				return fmt.Errorf("exec: kernel argument %q requires a buffer", par.Name)
			}
			if arg.Buf.wordT != nil {
				c.Ptr = Ptr{Flat: arg.Buf}
			} else {
				c.Ptr = Ptr{Slice: arg.Buf.Cells}
			}
		} else if s, ok := par.Type.(*cltypes.Scalar); ok {
			c.Val = cltypes.Trunc(arg.Scalar, s)
		} else {
			return fmt.Errorf("exec: unsupported kernel parameter type %s", par.Type)
		}
		slots[i] = c
	}
	vm.ensureRegs(kf.NumRegs)
	vm.ensureLVs(kf.NumLVs)
	vm.frames = append(vm.frames, vmFrame{
		fn: kf, slots: slots, slotBase: slotBase, retPC: -1, retDst: -1,
	})
	err := t.vmLoop(vm)
	vmInstructions.Add(t.vmInstrs)
	t.vmInstrs = 0
	return err
}

// auxType unwraps a type operand that may be a nil interface.
func auxType(a any) cltypes.Type {
	if a == nil {
		return nil
	}
	return a.(cltypes.Type)
}

// vmLoop is the dispatch loop. Cost accounting matches the tree walker's
// step() calls one for one (see the code package).
func (t *thread) vmLoop(vm *vmState) error {
	fr := &vm.frames[len(vm.frames)-1]
	ins := fr.fn.Code
	regs := vm.regs[fr.regBase:]
	lvs := vm.lvs[fr.lvBase:]
	checkRaces := t.m.opts.CheckRaces
	// cov is nil for coverage-off launches: the only cost the hooks add
	// then is a nil check inside the two branch-taken cases.
	cov := t.m.opts.Cover
	pc := 0
	for {
		in := &ins[pc]
		t.vmInstrs++
		if in.Cost != 0 {
			t.fuel -= int64(in.Cost)
			if t.fuel <= 0 {
				return &TimeoutError{Where: "kernel execution"}
			}
		}
		switch in.Op {
		case code.OpStep:
			// fuel-only

		case code.OpJump:
			pc = int(in.A)
			continue

		case code.OpBranchFalse:
			if !regs[in.Dst].isTrue() {
				if cov != nil {
					cov.hitEdge(fr.fn.Idx, int32(pc), in.A)
				}
				pc = int(in.A)
				continue
			}

		case code.OpBoolTest:
			v := &regs[in.Dst]
			if in.B == 0 { // &&
				if !v.isTrue() {
					*v = boolValue(false)
					if cov != nil {
						cov.hitEdge(fr.fn.Idx, int32(pc), in.A)
					}
					pc = int(in.A)
					continue
				}
			} else { // ||
				if v.isTrue() {
					*v = boolValue(true)
					if cov != nil {
						cov.hitEdge(fr.fn.Idx, int32(pc), in.A)
					}
					pc = int(in.A)
					continue
				}
			}

		case code.OpBoolFin:
			regs[in.Dst] = boolValue(regs[in.Dst].isTrue())

		case code.OpLoopEnter:
			t.iterStack = append(t.iterStack, 0)

		case code.OpLoopIter:
			t.iterStack[len(t.iterStack)-1]++

		case code.OpLoopExit:
			n := len(t.iterStack)
			iters := t.iterStack[n-1]
			t.iterStack = t.iterStack[:n-1]
			if le, ok := in.Aux.(*code.LoopExit); ok && iters == 0 {
				// The defect-trigger site was reached (a dead-loop-with-
				// barrier shape exited with zero iterations); count it
				// whether or not this configuration arms the defect.
				if cov != nil {
					cov.hitSite(CoverSiteDeadLoop)
				}
				if t.m.defect(bugs.WCDeadLoopBarrier) && t.lidLinear() != 0 {
					t.vmDeadLoopDefect(le, fr)
				}
			}

		case code.OpReturn:
			rv := regs[in.A]
			if rt, ok := fr.fn.Decl.Ret.(*cltypes.Scalar); ok {
				if _, isS := rv.T.(*cltypes.Scalar); isS {
					rv = convertScalar(&rv, rt)
				}
			}
			done, npc := t.vmReturn(vm, &fr, &ins, &regs, &lvs, rv)
			if done {
				return nil
			}
			pc = npc
			continue

		case code.OpReturnVoid:
			done, npc := t.vmReturn(vm, &fr, &ins, &regs, &lvs, Value{T: cltypes.TVoid})
			if done {
				return nil
			}
			pc = npc
			continue

		case code.OpReturnEnd:
			f := fr.fn.Decl
			var rv Value
			if f.Ret.Equal(cltypes.TVoid) {
				rv = Value{T: cltypes.TVoid}
			} else if rt, ok := f.Ret.(*cltypes.Scalar); ok {
				rv = scalarValue(0, rt)
			} else {
				return fmt.Errorf("exec: function %s fell off the end", f.Name)
			}
			done, npc := t.vmReturn(vm, &fr, &ins, &regs, &lvs, rv)
			if done {
				return nil
			}
			pc = npc
			continue

		case code.OpConst:
			cv := in.Aux.(*code.ConstVal)
			regs[in.Dst] = Value{T: cv.T, Scalar: cv.V}

		case code.OpPredef:
			regs[in.Dst] = scalarValue(uint64(in.A), cltypes.TUInt)

		case code.OpLoadVar, code.OpLoadGlobal:
			var c *Cell
			if in.Op == code.OpLoadVar {
				c = fr.slots[in.A]
			} else {
				c = t.m.globalCells[in.A]
			}
			if checkRaces {
				if err := t.noteAccess(c, false, false); err != nil {
					return err
				}
			}
			if sc, ok := c.Typ.(*cltypes.Scalar); ok {
				regs[in.Dst] = Value{T: sc, Scalar: c.Val}
			} else if err := loadCell(c, &regs[in.Dst]); err != nil {
				return err
			}

		case code.OpUnary:
			if err := t.vmUnary(ast.UnOp(in.B), auxType(in.Aux), &regs[in.Dst]); err != nil {
				return err
			}

		case code.OpDeref:
			lv, err := t.ptrLV(regs[in.A].Ptr, "null or dangling pointer dereference")
			if err != nil {
				return err
			}
			if checkRaces {
				if err := t.noteLVAccess(lv, false); err != nil {
					return err
				}
			}
			if err := lv.load(&regs[in.Dst]); err != nil {
				return err
			}

		case code.OpIncDec:
			if err := t.vmIncDec(lvs[in.A], ast.UnOp(in.B), &regs[in.Dst]); err != nil {
				return err
			}

		case code.OpAddrLV:
			lv := lvs[in.A]
			if lv.uField != nil || lv.vecIdx >= 0 {
				return fmt.Errorf("exec: cannot take the address of a union field or vector component")
			}
			var p Ptr
			if lv.flat != nil {
				p = Ptr{Flat: lv.flat, Idx: lv.wIdx}
			} else if _, isArr := lv.c.Typ.(*cltypes.Array); isArr {
				p = Ptr{Slice: lv.c.Kids, Idx: 0}
			} else {
				p = Ptr{Cell: lv.c}
			}
			regs[in.Dst] = Value{T: auxType(in.Aux), Ptr: p}

		case code.OpAddrElem:
			blv := lvs[in.A]
			iv := &regs[in.B]
			is := iv.T.(*cltypes.Scalar)
			idx := int(cltypes.AsInt64(iv.Scalar, is))
			if blv.c != nil && blv.uField == nil && blv.vecIdx < 0 {
				if idx < 0 || idx >= len(blv.c.Kids) {
					return &CrashError{Msg: "address of out-of-bounds element"}
				}
				regs[in.Dst] = Value{T: auxType(in.Aux), Ptr: Ptr{Slice: blv.c.Kids, Idx: idx}}
			} else {
				return fmt.Errorf("exec: cannot take element address of view lvalue")
			}

		case code.OpPtrAt:
			iv := &regs[in.B]
			is := iv.T.(*cltypes.Scalar)
			idx := int(cltypes.AsInt64(iv.Scalar, is))
			regs[in.Dst] = Value{T: auxType(in.Aux), Ptr: regs[in.A].Ptr.At(idx)}

		case code.OpBinary:
			bi := in.Aux.(*code.BinInfo)
			lv, rv := &regs[in.A], &regs[in.B]
			if _, ok := lv.T.(*cltypes.Pointer); ok {
				eq := samePtrTarget(lv.Ptr, rv.Ptr)
				if bi.Op == ast.EQ {
					regs[in.Dst] = boolValue(eq)
				} else {
					regs[in.Dst] = boolValue(!eq)
				}
			} else if err := t.applyBinary(bi.Op, lv, rv, bi.RT, &regs[in.Dst]); err != nil {
				return err
			}

		case code.OpComma:
			if t.m.defect(bugs.WCComma) {
				if rt, ok := regs[in.Dst].T.(*cltypes.Scalar); ok {
					regs[in.Dst] = scalarValue(0, rt)
				}
			}

		case code.OpCondFin:
			if rt, ok := auxType(in.Aux).(*cltypes.Scalar); ok {
				if _, isS := regs[in.Dst].T.(*cltypes.Scalar); isS {
					regs[in.Dst] = convertScalar(&regs[in.Dst], rt)
				}
			}

		case code.OpSwizzle:
			v := &regs[in.A]
			vt, ok := v.T.(*cltypes.Vector)
			if !ok {
				return fmt.Errorf("exec: swizzle of non-vector %s", v.T)
			}
			idx := in.Aux.([]int)
			if len(idx) == 1 {
				regs[in.Dst] = scalarValue(v.Vec[idx[0]], vt.Elem)
			} else {
				sw := make([]uint64, len(idx))
				for i, j := range idx {
					sw[i] = v.Vec[j]
				}
				regs[in.Dst] = Value{T: cltypes.VecOf(vt.Elem, len(idx)), Vec: sw}
			}

		case code.OpVecLit:
			vt := in.Aux.(*cltypes.Vector)
			var comps []uint64
			bad := false
			for i := 0; i < int(in.B); i++ {
				el := &regs[int(in.A)+i]
				switch et := el.T.(type) {
				case *cltypes.Scalar:
					comps = append(comps, cltypes.Convert(el.Scalar, et, vt.Elem))
				case *cltypes.Vector:
					comps = append(comps, el.Vec...)
				default:
					bad = true
				}
				if bad {
					return fmt.Errorf("exec: bad vector literal element %s", el.T)
				}
			}
			if len(comps) == 1 && vt.Len > 1 {
				splat := make([]uint64, vt.Len)
				for i := range splat {
					splat[i] = comps[0]
				}
				comps = splat
			}
			if len(comps) != vt.Len {
				return fmt.Errorf("exec: vector literal arity mismatch")
			}
			regs[in.Dst] = Value{T: vt, Vec: comps}

		case code.OpCast:
			if err := vmCast(&regs[in.Dst], auxType(in.Aux)); err != nil {
				return err
			}

		case code.OpConvert:
			out := &regs[in.Dst]
			switch to := auxType(in.Aux).(type) {
			case *cltypes.Scalar:
				*out = convertScalar(out, to)
			case *cltypes.Vector:
				src := out.T.(*cltypes.Vector)
				vec := make([]uint64, to.Len)
				for i, c := range out.Vec {
					vec[i] = cltypes.Convert(c, src.Elem, to.Elem)
				}
				*out = Value{T: to, Vec: vec}
			default:
				return fmt.Errorf("exec: bad convert result type")
			}

		case code.OpConvertFree:
			if _, ok := regs[in.Dst].T.(*cltypes.Scalar); ok {
				regs[in.Dst] = convertScalar(&regs[in.Dst], in.Aux.(*cltypes.Scalar))
			}

		case code.OpIdBuiltin:
			dim := int(regs[in.A].Scalar)
			regs[in.Dst] = scalarValue(t.idBuiltin(in.Aux.(string), dim), cltypes.TSizeT)

		case code.OpWorkDim:
			regs[in.Dst] = scalarValue(3, cltypes.TUInt)

		case code.OpLinearId:
			var v uint64
			switch in.B {
			case 0:
				v = uint64(t.gidLinear())
			case 1:
				v = uint64(t.lidLinear())
			default:
				v = uint64(t.groupLinear())
			}
			regs[in.Dst] = scalarValue(v, cltypes.TSizeT)

		case code.OpBarrier:
			if t.group == nil {
				return fmt.Errorf("exec: barrier outside kernel execution")
			}
			if t.group.bar == nil {
				return &CrashError{Msg: "barrier reached in barrier-free sequential execution"}
			}
			tok := barrierToken{node: in.Aux.(ast.Node), iters: t.iterDigest()}
			if err := t.group.bar.await(tok, regs[in.A].Scalar, t.lidLinear()); err != nil {
				return err
			}
			t.barrierSeen = true
			t.barrierCount++
			regs[in.Dst] = Value{T: cltypes.TVoid}

		case code.OpCrc64:
			c, v := &regs[in.A], &regs[in.B]
			vs := v.T.(*cltypes.Scalar)
			regs[in.Dst] = scalarValue(crcMix(c.Scalar, cltypes.SExt(v.Scalar, vs)), cltypes.TULong)

		case code.OpVcrc:
			c, v := &regs[in.A], &regs[in.B]
			h := c.Scalar
			for _, comp := range v.Vec {
				h = crcMix(h, comp)
			}
			regs[in.Dst] = scalarValue(h, cltypes.TULong)

		case code.OpAtomic:
			if err := t.vmAtomic(in, regs); err != nil {
				return err
			}

		case code.OpMath:
			if err := t.vmMath(in, regs); err != nil {
				return err
			}

		case code.OpCallPrep:
			if t.depth >= 64 {
				return &CrashError{Msg: "call stack overflow"}
			}
			fn := t.m.code.Fns[in.A]
			s, base := vm.grabSlots(fn.NumSlots)
			vm.pending = append(vm.pending, vmPending{fn: fn, slots: s, slotBase: base})

		case code.OpBindArg:
			p := &vm.pending[len(vm.pending)-1]
			c := t.newPrivCell(in.Aux.(cltypes.Type))
			if err := storeCell(c, &regs[in.A]); err != nil {
				return err
			}
			p.slots[in.B] = c

		case code.OpCall:
			p := vm.pending[len(vm.pending)-1]
			vm.pending = vm.pending[:len(vm.pending)-1]
			regBase := fr.regBase + fr.fn.NumRegs
			lvBase := fr.lvBase + fr.fn.NumLVs
			vm.ensureRegs(regBase + p.fn.NumRegs)
			vm.ensureLVs(lvBase + p.fn.NumLVs)
			vm.frames = append(vm.frames, vmFrame{
				fn: p.fn, slots: p.slots, slotBase: p.slotBase,
				regBase: regBase, lvBase: lvBase,
				retPC: pc + 1, retDst: in.Dst, iterBase: len(t.iterStack),
			})
			t.depth++
			fr = &vm.frames[len(vm.frames)-1]
			ins = fr.fn.Code
			regs = vm.regs[regBase:]
			lvs = vm.lvs[lvBase:]
			pc = 0
			continue

		case code.OpLVSlot:
			lvs[in.Dst] = directLV(fr.slots[in.A])

		case code.OpLVGlobal:
			lvs[in.Dst] = directLV(t.m.globalCells[in.A])

		case code.OpLVDeref:
			lv, err := t.ptrLV(regs[in.A].Ptr, "null or dangling pointer dereference")
			if err != nil {
				return err
			}
			lvs[in.Dst] = lv

		case code.OpLVPtrIndex:
			iv := &regs[in.B]
			is, ok := iv.T.(*cltypes.Scalar)
			if !ok {
				return fmt.Errorf("exec: non-scalar index")
			}
			idx := int(cltypes.AsInt64(iv.Scalar, is))
			lv, err := t.ptrLV(regs[in.A].Ptr.At(idx), "out-of-bounds buffer access")
			if err != nil {
				return err
			}
			lvs[in.Dst] = lv

		case code.OpLVIndex:
			iv := &regs[in.B]
			is, ok := iv.T.(*cltypes.Scalar)
			if !ok {
				return fmt.Errorf("exec: non-scalar index")
			}
			idx := int(cltypes.AsInt64(iv.Scalar, is))
			blv := lvs[in.A]
			if blv.uField != nil || blv.vecIdx >= 0 || blv.flat != nil {
				return fmt.Errorf("exec: cannot index a view lvalue")
			}
			if idx < 0 || idx >= len(blv.c.Kids) {
				return &CrashError{Msg: fmt.Sprintf("array index %d out of bounds [0,%d)", idx, len(blv.c.Kids))}
			}
			lvs[in.Dst] = directLV(blv.c.Kids[idx])

		case code.OpLVArrow, code.OpLVMember:
			var base *Cell
			if in.Op == code.OpLVArrow {
				base = regs[in.A].Ptr.Target()
				if base == nil {
					return &CrashError{Msg: "null pointer member access"}
				}
			} else {
				blv := lvs[in.A]
				if blv.uField != nil {
					return fmt.Errorf("exec: nested union member views unsupported")
				}
				if blv.c == nil {
					return fmt.Errorf("exec: member access on a non-aggregate lvalue")
				}
				base = blv.c
			}
			st, ok := base.Typ.(*cltypes.StructT)
			if !ok {
				return fmt.Errorf("exec: member access on %s", base.Typ)
			}
			mi := in.Aux.(*code.MemberInfo)
			i := int(mi.Idx)
			if i < 0 {
				i = st.FieldIndex(mi.Name)
			}
			if i < 0 || i >= len(st.Fields) {
				return fmt.Errorf("exec: no field %q in %s", mi.Name, st)
			}
			if st.IsUnion {
				lvs[in.Dst] = lval{c: base, uField: st.Fields[i].Type, vecIdx: -1}
			} else {
				lvs[in.Dst] = directLV(base.Kids[i])
			}

		case code.OpLVSwizzle:
			blv := lvs[in.A]
			if blv.uField != nil || blv.vecIdx >= 0 || blv.flat != nil {
				return fmt.Errorf("exec: cannot swizzle a view lvalue")
			}
			lvs[in.Dst] = lval{c: blv.c, vecIdx: int(in.B)}

		case code.OpLVLoad:
			lv := lvs[in.A]
			if checkRaces {
				if err := t.noteLVAccess(lv, false); err != nil {
					return err
				}
			}
			if err := lv.load(&regs[in.Dst]); err != nil {
				return err
			}

		case code.OpStore:
			if err := t.vmStore(in, lvs[in.A], regs); err != nil {
				return err
			}

		case code.OpDeclare:
			fr.slots[in.A] = t.newPrivCell(in.Aux.(cltypes.Type))

		case code.OpStoreDecl:
			if err := storeCell(fr.slots[in.A], &regs[in.B]); err != nil {
				return err
			}

		case code.OpBindLocal:
			d := in.Aux.(*ast.VarDecl)
			g := t.group
			c, ok := g.local[d]
			if !ok {
				c = NewCell(d.Type, cltypes.Local)
				g.local[d] = c
			}
			fr.slots[in.A] = c

		case code.OpNewAgg:
			typ := in.Aux.(cltypes.Type)
			regs[in.Dst] = Value{T: typ, Agg: t.newPrivCell(typ)}

		case code.OpInitField:
			if err := storeCell(regs[in.A].Agg.Kids[in.Dst], &regs[in.B]); err != nil {
				return err
			}

		case code.OpInitUnion:
			c := regs[in.A].Agg
			tt := c.Typ.(*cltypes.StructT)
			fv := regs[in.B]
			if fs, ok := tt.Fields[0].Type.(*cltypes.Scalar); ok {
				if vs, vok := fv.T.(*cltypes.Scalar); vok {
					fv = convertScalar(&Value{T: vs, Scalar: fv.Scalar}, fs)
				}
			}
			if err := encodeValue(c.Bytes, &fv, tt.Fields[0].Type); err != nil {
				return err
			}
			if t.m.defect(bugs.WCUnionInit) && unionHasSmallLeadStruct(tt) {
				for i := 2; i < len(c.Bytes) && i < tt.Fields[0].Type.Size(); i++ {
					c.Bytes[i] = 0xff
				}
			}

		case code.OpInitStructDefect:
			if t.m.defect(bugs.WCStructCharFirst) {
				c := regs[in.A].Agg
				for _, fi := range charFirstLargerFields(c.Typ.(*cltypes.StructT)) {
					c.Kids[fi].Val = 0
				}
			}

		default:
			return fmt.Errorf("exec: unknown opcode %d", in.Op)
		}
		pc++
	}
}

// vmReturn pops the current frame, writes the (already converted) return
// value into the caller's destination register, and re-installs the
// caller's windows. It reports done for the kernel frame.
func (t *thread) vmReturn(vm *vmState, fr **vmFrame, ins *[]code.Instr, regs *[]Value, lvs *[]lval, rv Value) (done bool, pc int) {
	f := *fr
	t.iterStack = t.iterStack[:f.iterBase]
	vm.slotStack = vm.slotStack[:f.slotBase]
	vm.frames = vm.frames[:len(vm.frames)-1]
	if len(vm.frames) == 0 {
		return true, 0
	}
	t.depth--
	cf := &vm.frames[len(vm.frames)-1]
	if f.retDst >= 0 {
		vm.regs[cf.regBase+int(f.retDst)] = rv
	}
	*fr = cf
	*ins = cf.fn.Code
	*regs = vm.regs[cf.regBase:]
	*lvs = vm.lvs[cf.lvBase:]
	return false, f.retPC
}

// vmDeadLoopDefect applies the Figure 2(d) clobber to the pre-resolved
// init destination, mirroring the tree walker's swallowed evalLV: any
// failure along the way — fuel exhaustion on the arrow shape's variable
// evaluation, a race report, a null pointer, an unresolvable field, a
// non-scalar destination — silently abandons the store.
func (t *thread) vmDeadLoopDefect(le *code.LoopExit, fr *vmFrame) {
	var c *Cell
	if le.Slot >= 0 {
		c = fr.slots[le.Slot]
	} else {
		c = t.m.globalCells[le.Global]
	}
	if c == nil {
		return
	}
	var lv lval
	if le.Arrow {
		// The `v->field` shape evaluates the variable first, which in
		// the tree walk charges one fuel step (its timeout, like every
		// other error here, is swallowed but the charge persists).
		t.fuel--
		if t.fuel <= 0 {
			return
		}
		if t.m.opts.CheckRaces {
			if err := t.noteAccess(c, false, false); err != nil {
				return
			}
		}
		base := c.Ptr.Target()
		if base == nil {
			return
		}
		st, ok := base.Typ.(*cltypes.StructT)
		if !ok {
			return
		}
		i := int(le.Field)
		if i < 0 {
			i = st.FieldIndex(le.Name)
		}
		if i < 0 || i >= len(st.Fields) {
			return
		}
		if st.IsUnion {
			lv = lval{c: base, uField: st.Fields[i].Type, vecIdx: -1}
		} else {
			lv = directLV(base.Kids[i])
		}
	} else {
		lv = directLV(c)
	}
	if s, ok := lv.typ().(*cltypes.Scalar); ok {
		one := scalarValue(1, s)
		_ = lv.store(&one)
	}
}

// vmUnary applies a value-level unary operator in place, mirroring the
// tail of evalUnary.
func (t *thread) vmUnary(op ast.UnOp, rt cltypes.Type, out *Value) error {
	switch vt := out.T.(type) {
	case *cltypes.Scalar:
		switch op {
		case ast.Neg:
			st := rt.(*cltypes.Scalar)
			*out = scalarValue(cltypes.Neg(cltypes.Convert(out.Scalar, vt, st), st), st)
			return nil
		case ast.Pos:
			*out = convertScalar(out, rt.(*cltypes.Scalar))
			return nil
		case ast.BitNot:
			st := rt.(*cltypes.Scalar)
			*out = scalarValue(cltypes.Not(cltypes.Convert(out.Scalar, vt, st), st), st)
			return nil
		case ast.LogNot:
			*out = boolValue(!out.isTrue())
			return nil
		}
	case *cltypes.Vector:
		res := make([]uint64, vt.Len)
		for i, c := range out.Vec {
			switch op {
			case ast.Neg:
				res[i] = cltypes.Neg(c, vt.Elem)
			case ast.Pos:
				res[i] = c
			case ast.BitNot:
				res[i] = cltypes.Not(c, vt.Elem)
			case ast.LogNot:
				if cltypes.Trunc(c, vt.Elem) == 0 {
					res[i] = mask(vt.Elem)
				} else {
					res[i] = 0
				}
			}
		}
		*out = Value{T: rt.(*cltypes.Vector), Vec: res}
		return nil
	case *cltypes.Pointer:
		if op == ast.LogNot {
			*out = boolValue(out.Ptr.IsNull())
			return nil
		}
	}
	return fmt.Errorf("exec: invalid unary %s on %s", op, out.T)
}

// vmCast applies an explicit cast in place, mirroring the Cast case of
// evalExpr.
func vmCast(out *Value, toT cltypes.Type) error {
	switch to := toT.(type) {
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
		*out = Value{T: to}
		return nil
	}
	return fmt.Errorf("exec: bad cast to %s", toT)
}

// vmAtomic mirrors evalAtomic with the pointer and operand values
// already in registers.
func (t *thread) vmAtomic(in *code.Instr, regs []Value) error {
	name := in.Aux.(string)
	ptr := regs[in.A].Ptr
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
	if in.B >= 1 {
		ov := &regs[in.A+1]
		os := ov.T.(*cltypes.Scalar)
		operand = cltypes.Convert(ov.Scalar, os, st)
	}
	if in.B == 2 {
		cmp = operand
		ov := &regs[in.A+2]
		vs := ov.T.(*cltypes.Scalar)
		operand = cltypes.Convert(ov.Scalar, vs, st)
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
	if word == nil {
		word = &target.Val
	}
	next, ok := atomicNext(name, *word, operand, cmp, st)
	if !ok {
		return fmt.Errorf("exec: unknown atomic %s", name)
	}
	regs[in.Dst] = scalarValue(*word, st)
	*word = next
	return nil
}

// vmMath mirrors the post-evaluation half of evalMath: the scalar fast
// path, the element-wise vector path, and the >3-operand fallback.
func (t *thread) vmMath(in *code.Instr, regs []Value) error {
	mi := in.Aux.(*code.MathInfo)
	n := int(in.B)
	args := regs[int(in.A) : int(in.A)+n]
	if st, ok := mi.RT.(*cltypes.Scalar); ok && n <= 3 {
		var vals [3]uint64
		for i := range args {
			vals[i] = cltypes.Convert(args[i].Scalar, args[i].T.(*cltypes.Scalar), st)
		}
		regs[in.Dst] = scalarValue(mathOp(mi.Name, vals[:n], st), st)
		return nil
	}
	if vt, ok := mi.RT.(*cltypes.Vector); ok {
		comps := make([][]uint64, n)
		for i := range args {
			c, err := vecComponents(&args[i], vt)
			if err != nil {
				return err
			}
			comps[i] = c
		}
		vec := make([]uint64, vt.Len)
		for i := range vec {
			vals := make([]uint64, n)
			for j := 0; j < n; j++ {
				vals[j] = comps[j][i]
			}
			vec[i] = mathOp(mi.Name, vals, vt.Elem)
		}
		regs[in.Dst] = Value{T: vt, Vec: vec}
		return nil
	}
	st := mi.RT.(*cltypes.Scalar)
	vals := make([]uint64, n)
	for i := range args {
		as := args[i].T.(*cltypes.Scalar)
		vals[i] = cltypes.Convert(args[i].Scalar, as, st)
	}
	regs[in.Dst] = scalarValue(mathOp(mi.Name, vals, st), st)
	return nil
}

// vmIncDec applies ++/-- through an lvalue, mirroring the IncDec case
// of evalExpr: race note, load, scalar check, wrap-around add/sub by
// one, store, and the post-op value restore.
func (t *thread) vmIncDec(lv lval, op ast.UnOp, out *Value) error {
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
	if op == ast.PreInc || op == ast.PostInc {
		nv = cltypes.Add(old, 1, st)
	} else {
		nv = cltypes.Sub(old, 1, st)
	}
	*out = scalarValue(nv, st)
	if err := lv.store(out); err != nil {
		return err
	}
	if op == ast.PostInc || op == ast.PostDec {
		*out = scalarValue(old, st)
	}
	return nil
}

// vmStore mirrors evalAssignStore: compound folding, the store defect
// models (with the syntactic triggers pre-resolved by the lowerer), the
// store itself, struct-copy corruption, and the value-position reload.
func (t *thread) vmStore(in *code.Instr, lv lval, regs []Value) error {
	si := in.Aux.(*code.StoreInfo)
	if cov := t.m.opts.Cover; cov != nil {
		if si.DerefParam {
			cov.hitSite(CoverSiteDerefStore)
		}
		if si.ArrowParam {
			cov.hitSite(CoverSiteArrowStore)
		}
	}
	rv := &regs[in.B]
	if si.Op != ast.Assign {
		var old, combined Value
		if err := lv.load(&old); err != nil {
			return err
		}
		if err := t.applyBinary(si.Op.BinOp(), &old, rv, compoundType(lv.typ(), rv.T), &combined); err != nil {
			return err
		}
		*rv = combined
	}
	drop, err := t.storeDefect(si.Op, si.DerefParam, si.ArrowParam)
	if err != nil {
		return err
	}
	if drop {
		if in.Dst >= 0 {
			regs[in.Dst] = *rv
		}
		return nil
	}
	if t.m.opts.CheckRaces {
		if err := t.noteLVAccess(lv, true); err != nil {
			return err
		}
	}
	if err := lv.store(rv); err != nil {
		return err
	}
	if st, ok := lv.typ().(*cltypes.StructT); ok && !st.IsUnion && lv.c != nil {
		t.corruptStructCopy(lv.c, st)
	}
	if in.Dst >= 0 {
		return lv.load(&regs[in.Dst])
	}
	return nil
}
