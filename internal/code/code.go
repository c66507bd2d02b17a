package code

import (
	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
)

// Op enumerates the bytecode operations. Each op corresponds to exactly
// one tree-walk evaluation step (or to a zero-cost bookkeeping action the
// tree walker performs without charging fuel), so a lowered program
// charges fuel identically to the tree-walking evaluator on every path —
// Timeout outcomes, and therefore campaign outputs, are byte-identical
// between the two engines.
type Op uint8

// Operations. Field usage is documented per op: Dst is the destination
// value register (or lvalue register for the OpLV* family), A and B are
// operand registers, slots, jump targets, or small immediates, and Aux
// carries pre-resolved operand data (types, constants, call sites).
const (
	OpInvalid Op = iota

	// Control flow.
	OpStep        // fuel-only no-op (block/empty statement entry)
	OpJump        // A = target pc
	OpBranchFalse // Dst = cond reg, A = target pc (branch when falsy)
	OpBoolTest    // Dst = reg, A = target pc, B = 0 for &&, 1 for || (short-circuit)
	OpBoolFin     // Dst = reg: normalize to int 0/1
	OpLoopEnter   // push a zero iteration counter
	OpLoopIter    // increment the top iteration counter
	OpLoopExit    // pop the counter; Aux *LoopExit for the dead-loop defect model
	OpReturn      // A = value reg
	OpReturnVoid  //
	OpReturnEnd   // implicit fall-off-the-end return

	// Values.
	OpConst       // Dst = reg, Aux *ConstVal
	OpPredef      // Dst = reg, A = value (CLK_*_MEM_FENCE)
	OpLoadVar     // Dst = reg, A = frame slot
	OpLoadGlobal  // Dst = reg, A = program-global index
	OpUnary       // Dst = reg, A = src reg, B = ast.UnOp, Aux = result type
	OpDeref       // Dst = reg, A = pointer reg
	OpIncDec      // Dst = reg, A = lv reg, B = ast.UnOp
	OpAddrLV      // Dst = reg, A = lv reg, Aux = result type
	OpAddrElem    // Dst = reg, A = base lv reg, B = index reg, Aux = result type
	OpPtrAt       // Dst = reg, A = base pointer reg, B = index reg, Aux = result type
	OpBinary      // Dst = reg, A = left reg, B = right reg, Aux *BinInfo
	OpComma       // Dst = reg (right operand already in Dst; applies the comma defect)
	OpCondFin     // Dst = reg, Aux = ternary result type (may be nil)
	OpSwizzle     // Dst = reg, A = base reg, Aux []int component indices
	OpVecLit      // Dst = reg, A = first element reg, B = element count, Aux *cltypes.Vector
	OpCast        // Dst = reg, A = src reg, Aux = target type
	OpConvert     // Dst = reg, A = src reg, Aux = result type (convert_ builtin)
	OpConvertFree // Dst = reg, Aux *cltypes.Scalar: zero-cost initializer conversion

	// Builtins.
	OpIdBuiltin // Dst = reg, A = dim reg, Aux = builtin name
	OpWorkDim   // Dst = reg
	OpLinearId  // Dst = reg, B = 0 global / 1 local / 2 group
	OpBarrier   // Dst = reg (void result), A = fence reg, Aux = ast.Node call site
	OpCrc64     // Dst = reg, A = hash reg, B = value reg
	OpVcrc      // Dst = reg, A = hash reg, B = vector reg
	OpAtomic    // Dst = reg, A = pointer reg (args follow in A+1..), B = extra arg count, Aux = name
	OpMath      // Dst = reg, A = first arg reg, B = arg count, Aux *MathInfo

	// User calls.
	OpCallPrep // A = callee fn index: depth check, allocate the pending frame
	OpBindArg  // A = arg reg, B = param index, Aux = param type
	OpCall     // Dst = result reg, A = callee fn index: activate the pending frame

	// Lvalues.
	OpLVSlot     // Dst = lv reg, A = frame slot
	OpLVGlobal   // Dst = lv reg, A = program-global index
	OpLVDeref    // Dst = lv reg, A = pointer reg
	OpLVPtrIndex // Dst = lv reg, A = base pointer reg, B = index reg
	OpLVIndex    // Dst = lv reg, A = base lv reg, B = index reg
	OpLVArrow    // Dst = lv reg, A = base pointer reg, Aux *MemberInfo
	OpLVMember   // Dst = lv reg, A = base lv reg, Aux *MemberInfo
	OpLVSwizzle  // Dst = lv reg, A = base lv reg, B = component index
	OpLVLoad     // Dst = reg, A = lv reg
	OpStore      // Dst = result reg or -1, A = lv reg, B = value reg, Aux *StoreInfo

	// Declarations and initializers.
	OpDeclare          // A = frame slot, Aux = type: allocate a fresh private cell
	OpStoreDecl        // A = frame slot, B = value reg
	OpBindLocal        // A = frame slot, Aux *ast.VarDecl: group-shared local-memory cell
	OpNewAgg           // Dst = reg, Aux = type: fresh aggregate cell as an Agg value
	OpInitField        // Dst = kid index, A = aggregate reg, B = element reg
	OpInitUnion        // A = aggregate reg, B = element reg (single-member union init)
	OpInitStructDefect // A = aggregate reg: the Figure 1(a) char-first models
)

// Instr is one bytecode instruction. Cost is the fuel charged at
// dispatch: the number of tree-walker step() calls the instruction
// stands for (0 for bookkeeping the tree walker performs for free).
type Instr struct {
	Op   Op
	Cost uint8
	Dst  int32
	A, B int32
	Aux  any
}

// ConstVal is a pre-built scalar constant (an IntLit, already truncated
// to its type at lowering time).
type ConstVal struct {
	T *cltypes.Scalar
	V uint64
}

// BinInfo carries a binary operator and its checked result type.
type BinInfo struct {
	Op ast.BinOp
	RT cltypes.Type
}

// MathInfo identifies a math/safe-math builtin call site.
type MathInfo struct {
	Name string
	RT   cltypes.Type
}

// MemberInfo is a pre-resolved struct member access. Idx is the field
// index when sema recorded one (-1 otherwise, falling back to a by-name
// scan against the runtime struct type, exactly like the tree walker).
type MemberInfo struct {
	Idx  int32
	Name string
}

// StoreInfo is the static shape of an assignment: the operator plus the
// two syntactic defect-model triggers of Figures 1(d)/2(c) (a store
// through a dereferenced pointer parameter, or through an arrow member
// of a pointer parameter). The triggers are purely syntactic — the
// defect models key on the parameter name of the enclosing function —
// so the lowerer resolves them once instead of re-walking the LHS on
// every store.
type StoreInfo struct {
	Op         ast.AssignOp
	DerefParam bool
	ArrowParam bool
}

// LoopExit describes the Figure 2(d) dead-loop-with-barrier defect for
// one for loop whose body contains a barrier and whose init clause is a
// plain assignment: when the loop executes zero iterations on a
// non-leader thread of an armed configuration, the init destination is
// clobbered to 1. Slot is the frame slot of the destination variable
// (or -1), Global the program-global index (or -1). Arrow marks the
// `v->field = …` init shape (the Figure 2(d) exhibit itself): the
// variable holds a struct pointer and Field/Name resolve the member at
// runtime, mirroring the tree walker's swallowed evalLV — including its
// one fuel charge for the variable evaluation.
type LoopExit struct {
	Slot   int32
	Global int32
	Arrow  bool
	Field  int32
	Name   string
}

// Fn is the lowered form of one function: a flat instruction slice over
// a register frame. NumRegs/NumLVs/NumSlots size the frame's value
// registers, lvalue registers, and variable slots. Idx is the function's
// position in Program.Fns — a lowering-time constant the executor's edge
// coverage uses to key (function, branch pc, target pc) triples stably
// across processes.
type Fn struct {
	Name     string
	Decl     *ast.FuncDecl
	Code     []Instr
	Idx      int32
	NumRegs  int
	NumLVs   int
	NumSlots int
}

// Program is the lowered form of a checked program: one Fn per defined
// function, with calls pre-resolved to Fns indices and global references
// pre-resolved to indices into the AST program's Globals list. The
// program is read-only after Lower returns: like the checked AST it is
// derived from, one lowered program may be shared by any number of
// configurations and concurrent launches.
type Program struct {
	Fns    []*Fn
	Kernel int // index of the kernel in Fns
}
