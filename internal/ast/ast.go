package ast

import "clfuzz/internal/cltypes"

// Node is implemented by every AST node.
type Node interface{ node() }

// Expr is implemented by all expression nodes. Every expression carries the
// type computed by semantic analysis (nil before type checking).
type Expr interface {
	Node
	expr()
	// Type returns the checked type of the expression.
	Type() cltypes.Type
	// SetType records the checked type.
	SetType(cltypes.Type)
}

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmt()
}

type exprBase struct{ T cltypes.Type }

func (*exprBase) node()                    {}
func (*exprBase) expr()                    {}
func (e *exprBase) Type() cltypes.Type     { return e.T }
func (e *exprBase) SetType(t cltypes.Type) { e.T = t }

type stmtBase struct{}

func (*stmtBase) node() {}
func (*stmtBase) stmt() {}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators. Comma is the C comma operator, which the subset
// supports because it triggered a real Oclgrind bug (paper Figure 2(f)).
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	And
	Or
	Xor
	Shl
	Shr
	LAnd
	LOr
	EQ
	NE
	LT
	LE
	GT
	GE
	Comma
)

var binOpStr = map[BinOp]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%",
	And: "&", Or: "|", Xor: "^", Shl: "<<", Shr: ">>",
	LAnd: "&&", LOr: "||",
	EQ: "==", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">=",
	Comma: ",",
}

// String returns the source spelling of the operator.
func (op BinOp) String() string { return binOpStr[op] }

// IsComparison reports whether the operator is a relational or equality
// operator (result type int).
func (op BinOp) IsComparison() bool {
	switch op {
	case EQ, NE, LT, LE, GT, GE:
		return true
	}
	return false
}

// IsLogical reports whether the operator is && or ||.
func (op BinOp) IsLogical() bool { return op == LAnd || op == LOr }

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	Neg UnOp = iota
	Pos
	BitNot
	LogNot
	AddrOf
	Deref
	PreInc
	PreDec
	PostInc
	PostDec
)

var unOpStr = map[UnOp]string{
	Neg: "-", Pos: "+", BitNot: "~", LogNot: "!", AddrOf: "&", Deref: "*",
	PreInc: "++", PreDec: "--", PostInc: "++", PostDec: "--",
}

// String returns the source spelling of the operator.
func (op UnOp) String() string { return unOpStr[op] }

// AssignOp enumerates assignment operators.
type AssignOp int

// Assignment operators.
const (
	Assign AssignOp = iota
	AddAssign
	SubAssign
	MulAssign
	DivAssign
	ModAssign
	AndAssign
	OrAssign
	XorAssign
	ShlAssign
	ShrAssign
)

var assignOpStr = map[AssignOp]string{
	Assign: "=", AddAssign: "+=", SubAssign: "-=", MulAssign: "*=",
	DivAssign: "/=", ModAssign: "%=", AndAssign: "&=", OrAssign: "|=",
	XorAssign: "^=", ShlAssign: "<<=", ShrAssign: ">>=",
}

// String returns the source spelling of the operator.
func (op AssignOp) String() string { return assignOpStr[op] }

// BinOp returns the underlying binary operator of a compound assignment
// (Add for +=). It must not be called on plain Assign.
func (op AssignOp) BinOp() BinOp {
	switch op {
	case AddAssign:
		return Add
	case SubAssign:
		return Sub
	case MulAssign:
		return Mul
	case DivAssign:
		return Div
	case ModAssign:
		return Mod
	case AndAssign:
		return And
	case OrAssign:
		return Or
	case XorAssign:
		return Xor
	case ShlAssign:
		return Shl
	}
	return Shr
}

// ---- Expressions ----

// IntLit is an integer literal with an explicit type (the printer emits a
// suffix or cast as needed so the parser recovers the same type).
type IntLit struct {
	exprBase
	Val uint64
}

// NewIntLit returns a literal of the given value and scalar type.
func NewIntLit(v uint64, t *cltypes.Scalar) *IntLit {
	l := &IntLit{Val: cltypes.Trunc(v, t)}
	l.SetType(t)
	return l
}

// VarRef is a reference to a named variable or parameter.
type VarRef struct {
	exprBase
	Name string
}

// NewVarRef returns an unresolved variable reference.
func NewVarRef(name string) *VarRef { return &VarRef{Name: name} }

// Unary is a unary operator application.
type Unary struct {
	exprBase
	Op UnOp
	X  Expr
}

// Binary is a binary operator application.
type Binary struct {
	exprBase
	Op   BinOp
	L, R Expr
}

// AssignExpr is an assignment (possibly compound). It is an expression, as
// in C, though the generator only emits it in statement position.
type AssignExpr struct {
	exprBase
	Op  AssignOp
	LHS Expr
	RHS Expr
}

// Cond is the ternary conditional operator c ? t : f.
type Cond struct {
	exprBase
	C, T, F Expr
}

// Call is a function or builtin call.
type Call struct {
	exprBase
	Name string
	Args []Expr
}

// Index is array subscripting base[idx].
type Index struct {
	exprBase
	Base Expr
	Idx  Expr
}

// Member is struct/union member access: base.Name or base->Name.
type Member struct {
	exprBase
	Base  Expr
	Name  string
	Arrow bool
	// FieldIdx is 1 + the resolved field index within the struct type,
	// recorded by sema (0 = not yet resolved). The evaluator uses it to
	// skip the by-name field scan on every access.
	FieldIdx int
}

// Swizzle is vector component access such as v.x or v.s03.
type Swizzle struct {
	exprBase
	Base Expr
	Sel  string
}

// VecLit is an OpenCL vector literal such as (int4)(1, v2, 3). Element
// expressions may themselves be vectors whose lengths sum to the vector
// length.
type VecLit struct {
	exprBase
	VT    *cltypes.Vector
	Elems []Expr
}

// Cast is an explicit scalar conversion (T)x.
type Cast struct {
	exprBase
	To cltypes.Type
	X  Expr
}

// InitList is a braced initializer for arrays, structs and unions.
// InitLists appear only as variable initializers.
type InitList struct {
	exprBase
	Elems []Expr
}

// ---- Statements ----

// DeclStmt declares a local variable.
type DeclStmt struct {
	stmtBase
	Decl *VarDecl
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	stmtBase
	X Expr
}

// Block is a brace-delimited statement sequence with its own scope.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// If is a conditional statement. Else may be nil.
type If struct {
	stmtBase
	Cond Expr
	Then *Block
	Else Stmt // *Block or *If or nil
}

// For is a C for loop. Init may be a *DeclStmt or *ExprStmt or nil; Cond
// and Post may be nil.
type For struct {
	stmtBase
	Init Stmt
	Cond Expr
	Post Expr
	Body *Block
}

// While is a while loop.
type While struct {
	stmtBase
	Cond Expr
	Body *Block
}

// DoWhile is a do { } while loop.
type DoWhile struct {
	stmtBase
	Body *Block
	Cond Expr
}

// Break is a break statement.
type Break struct{ stmtBase }

// Continue is a continue statement.
type Continue struct{ stmtBase }

// Return is a return statement; X may be nil.
type Return struct {
	stmtBase
	X Expr
}

// Empty is the empty statement ";".
type Empty struct{ stmtBase }

// ---- Declarations ----

// VarDecl declares a variable (global, local-memory, parameter, or block
// scope).
type VarDecl struct {
	Name     string
	Type     cltypes.Type
	Space    cltypes.AddrSpace
	Volatile bool
	Const    bool
	Init     Expr // may be nil; *InitList for aggregates
}

// Param is a function or kernel parameter.
type Param struct {
	Name string
	Type cltypes.Type
}

// FuncDecl is a function or kernel definition. A forward declaration has a
// nil Body.
type FuncDecl struct {
	Name     string
	Ret      cltypes.Type
	Params   []Param
	Body     *Block
	IsKernel bool
}

// Program is a translation unit: type definitions, file-scope constant
// declarations (OpenCL permits constant-space program-scope variables),
// and functions. Funcs appear in definition order; OpenCL C requires
// declaration before use, like C.
type Program struct {
	Structs []*cltypes.StructT
	Globals []*VarDecl // constant address space program-scope variables
	Funcs   []*FuncDecl
}

// Kernel returns the (first) kernel function of the program, or nil.
func (p *Program) Kernel() *FuncDecl {
	for _, f := range p.Funcs {
		if f.IsKernel {
			return f
		}
	}
	return nil
}

// Func returns the named function definition (with body), or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name && f.Body != nil {
			return f
		}
	}
	return nil
}

// StructByName returns the named struct/union definition, or nil.
func (p *Program) StructByName(name string) *cltypes.StructT {
	for _, s := range p.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}
