package sema

import (
	"fmt"

	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
)

// BuildError is a front-end diagnostic: the kernel is rejected at build
// time. In campaign terms it is a "build failure" outcome.
type BuildError struct{ Msg string }

// Error implements the error interface.
func (e *BuildError) Error() string { return e.Msg }

// HangError reports that the compiler would not terminate on this input
// (Figure 1(e)); the harness classifies it as a timeout.
type HangError struct{ Msg string }

// Error implements the error interface.
func (e *HangError) Error() string { return e.Msg }

// Info summarizes program features that the defect model and the campaign
// statistics consult.
type Info struct {
	HasBarrier     bool
	BarrierCount   int
	HasFwdDecl     bool // a forward declaration with a later definition
	MaxStructBytes int
	UsesGroupID    bool
	UsesVector     bool
	HasComma       bool
	HasHangPattern bool // constant-bound >=197 for loop guarding while(1)
	HasVolatile    bool
	FuncCount      int
	StmtCount      int
}

// Check type-checks the program under the given defect set and returns a
// freshly built, fully annotated program: every expression carries its
// type and vector member accesses are rewritten into swizzles. The input
// program is never written to — checking rebuilds nodes instead of
// mutating them (copy-on-write: nodes that need no annotation, such as
// already-typed literals, are shared) — so one pristine parse may be
// checked concurrently under any number of defect sets. It also returns
// program feature information used by the defect model.
func Check(prog *ast.Program, defects bugs.Set) (*ast.Program, *Info, error) {
	c := &checker{
		prog:    prog,
		defects: defects,
		info:    &Info{},
		funcs:   map[string]*ast.FuncDecl{},
	}
	out, err := c.check()
	return out, c.info, err
}

// sym is a resolved name.
type sym struct {
	typ      cltypes.Type
	space    cltypes.AddrSpace
	isConst  bool
	volatile bool
}

type scope struct {
	parent *scope
	names  map[string]*sym
}

func (s *scope) lookup(name string) *sym {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.names[name]; ok {
			return v
		}
	}
	return nil
}

func (s *scope) define(name string, v *sym) { s.names[name] = v }

func newScope(parent *scope) *scope { return &scope{parent: parent, names: map[string]*sym{}} }

type checker struct {
	prog    *ast.Program
	defects bugs.Set
	info    *Info
	funcs   map[string]*ast.FuncDecl
	globals *scope
	cur     *ast.FuncDecl
	scope   *scope
	loop    int // loop nesting depth, for break/continue checking
	a       nodeArena
}

func (c *checker) errf(format string, args ...any) error {
	return &BuildError{Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) check() (*ast.Program, error) {
	// Struct definitions: the Altera vector-in-struct internal error
	// (Figure 1(c)) fires here, during IR generation for the type.
	for _, st := range c.prog.Structs {
		for _, f := range st.Fields {
			if containsVector(f.Type) && c.defects.Has(bugs.FEVectorInStructICE) {
				return nil, c.errf("internal error: LLVM IR generation failed for %s (vector in aggregate)", st.String())
			}
			if sz := st.Size(); sz > c.info.MaxStructBytes {
				c.info.MaxStructBytes = sz
			}
		}
	}
	out := &ast.Program{Structs: c.prog.Structs}
	c.globals = newScope(nil)
	for _, g := range c.prog.Globals {
		if g.Space != cltypes.Constant {
			return nil, c.errf("program-scope variable %s must be in constant address space", g.Name)
		}
		ng := *g
		if g.Init != nil {
			init, err := c.checkInit(g.Type, g.Init)
			if err != nil {
				return nil, err
			}
			ng.Init = init
		}
		c.globals.define(g.Name, &sym{typ: g.Type, space: cltypes.Constant, isConst: true})
		out.Globals = append(out.Globals, &ng)
	}
	// Collect function declarations in order, checking redeclarations.
	kernels := 0
	for _, f := range c.prog.Funcs {
		prev, seen := c.funcs[f.Name]
		if seen {
			if prev.Body != nil && f.Body != nil {
				return nil, c.errf("redefinition of function %s", f.Name)
			}
			if !sameSignature(prev, f) {
				return nil, c.errf("conflicting declarations of function %s", f.Name)
			}
			if prev.Body == nil && f.Body != nil {
				c.info.HasFwdDecl = true
			}
		}
		if f.Body != nil || !seen {
			c.funcs[f.Name] = f
		}
		if f.IsKernel && f.Body != nil {
			kernels++
			if !f.Ret.Equal(cltypes.TVoid) {
				return nil, c.errf("kernel %s must return void", f.Name)
			}
		}
		if f.Body != nil {
			c.info.FuncCount++
		}
	}
	if kernels == 0 {
		return nil, c.errf("no kernel function defined")
	}
	// Check bodies in order, rebuilding each definition. OpenCL C (like C)
	// requires declaration before use; the collection pass above already
	// registered all names, so we enforce order only loosely (CLsmith emits
	// forward declarations). Bodiless forward declarations carry no
	// annotations and are shared with the input program.
	for _, f := range c.prog.Funcs {
		if f.Body == nil {
			out.Funcs = append(out.Funcs, f)
			continue
		}
		nf, err := c.checkFunc(f)
		if err != nil {
			return nil, err
		}
		out.Funcs = append(out.Funcs, nf)
	}
	return out, nil
}

func sameSignature(a, b *ast.FuncDecl) bool {
	if !a.Ret.Equal(b.Ret) || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if !a.Params[i].Type.Equal(b.Params[i].Type) {
			return false
		}
	}
	return true
}

func containsVector(t cltypes.Type) bool {
	switch tt := t.(type) {
	case *cltypes.Vector:
		return true
	case *cltypes.Array:
		return containsVector(tt.Elem)
	case *cltypes.StructT:
		for _, f := range tt.Fields {
			if containsVector(f.Type) {
				return true
			}
		}
	}
	return false
}

func (c *checker) checkFunc(f *ast.FuncDecl) (*ast.FuncDecl, error) {
	c.cur = f
	c.scope = newScope(c.globals)
	for _, p := range f.Params {
		space := cltypes.Private
		if pt, ok := p.Type.(*cltypes.Pointer); ok {
			space = pt.Space
		}
		c.scope.define(p.Name, &sym{typ: p.Type, space: space})
	}
	body, err := c.checkBlock(f.Body)
	if err != nil {
		return nil, err
	}
	nf := *f
	nf.Body = body
	return &nf, nil
}

func (c *checker) checkBlock(b *ast.Block) (*ast.Block, error) {
	outer := c.scope
	c.scope = newScope(outer)
	defer func() { c.scope = outer }()
	out := &ast.Block{Stmts: grabSlice(&c.a.stmts, len(b.Stmts))}
	for i, s := range b.Stmts {
		ns, err := c.checkStmt(s)
		if err != nil {
			return nil, err
		}
		out.Stmts[i] = ns
	}
	return out, nil
}

func (c *checker) checkStmt(s ast.Stmt) (ast.Stmt, error) {
	c.info.StmtCount++
	switch st := s.(type) {
	case *ast.DeclStmt:
		nd, err := c.checkVarDecl(st.Decl)
		if err != nil {
			return nil, err
		}
		return &ast.DeclStmt{Decl: nd}, nil
	case *ast.ExprStmt:
		x, err := c.checkExpr(st.X)
		if err != nil {
			return nil, err
		}
		return &ast.ExprStmt{X: x}, nil
	case *ast.Block:
		return c.checkBlock(st)
	case *ast.If:
		cond, err := c.checkScalarCond(st.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.checkBlock(st.Then)
		if err != nil {
			return nil, err
		}
		ns := &ast.If{Cond: cond, Then: then}
		if st.Else != nil {
			els, err := c.checkStmt(st.Else)
			if err != nil {
				return nil, err
			}
			ns.Else = els
		}
		return ns, nil
	case *ast.For:
		outer := c.scope
		c.scope = newScope(outer)
		defer func() { c.scope = outer }()
		ns := &ast.For{}
		if st.Init != nil {
			init, err := c.checkStmt(st.Init)
			if err != nil {
				return nil, err
			}
			c.info.StmtCount-- // init was counted by the recursive call
			ns.Init = init
		}
		if st.Cond != nil {
			cond, err := c.checkScalarCond(st.Cond)
			if err != nil {
				return nil, err
			}
			ns.Cond = cond
		}
		if st.Post != nil {
			post, err := c.checkExpr(st.Post)
			if err != nil {
				return nil, err
			}
			ns.Post = post
		}
		c.detectHangPattern(st)
		c.loop++
		defer func() { c.loop-- }()
		body, err := c.checkBlock(st.Body)
		if err != nil {
			return nil, err
		}
		ns.Body = body
		return ns, nil
	case *ast.While:
		cond, err := c.checkScalarCond(st.Cond)
		if err != nil {
			return nil, err
		}
		c.loop++
		defer func() { c.loop-- }()
		body, err := c.checkBlock(st.Body)
		if err != nil {
			return nil, err
		}
		return &ast.While{Cond: cond, Body: body}, nil
	case *ast.DoWhile:
		c.loop++
		body, err := c.checkBlock(st.Body)
		c.loop--
		if err != nil {
			return nil, err
		}
		cond, err := c.checkScalarCond(st.Cond)
		if err != nil {
			return nil, err
		}
		return &ast.DoWhile{Body: body, Cond: cond}, nil
	case *ast.Break:
		if c.loop == 0 {
			return nil, c.errf("break outside of loop")
		}
		return st, nil
	case *ast.Continue:
		if c.loop == 0 {
			return nil, c.errf("continue outside of loop")
		}
		return st, nil
	case *ast.Return:
		if st.X == nil {
			if !c.cur.Ret.Equal(cltypes.TVoid) {
				return nil, c.errf("return without value in function %s returning %s", c.cur.Name, c.cur.Ret)
			}
			return st, nil
		}
		x, err := c.checkExpr(st.X)
		if err != nil {
			return nil, err
		}
		if !c.convertibleTo(x.Type(), c.cur.Ret) {
			return nil, c.errf("cannot return %s from function %s returning %s", x.Type(), c.cur.Name, c.cur.Ret)
		}
		return &ast.Return{X: x}, nil
	case *ast.Empty:
		return st, nil
	}
	return nil, c.errf("unknown statement %T", s)
}

// detectHangPattern checks for the Figure 1(e) shape: a for loop with a
// constant bound of at least 197 whose body conditionally reaches an
// unbounded while loop. When the FECompileHangLoop defect is armed this
// pattern records itself in Info; the compile driver turns it into a hang.
func (c *checker) detectHangPattern(f *ast.For) {
	bin, ok := f.Cond.(*ast.Binary)
	if !ok || (bin.Op != ast.LT && bin.Op != ast.LE) {
		return
	}
	lit, ok := bin.R.(*ast.IntLit)
	if !ok || lit.Val < 197 {
		return
	}
	found := false
	walkStmt(f.Body, func(s ast.Stmt) {
		if w, ok := s.(*ast.While); ok {
			if cl, ok := w.Cond.(*ast.IntLit); ok && cl.Val != 0 {
				found = true
			}
		}
	})
	if found {
		c.info.HasHangPattern = true
	}
}

func (c *checker) checkVarDecl(d *ast.VarDecl) (*ast.VarDecl, error) {
	if d.Space == cltypes.Constant {
		return nil, c.errf("constant address space variables must be program scope")
	}
	if d.Volatile {
		c.info.HasVolatile = true
	}
	if at, ok := d.Type.(*cltypes.Array); ok && at.Len <= 0 {
		return nil, c.errf("array %s has non-positive length", d.Name)
	}
	nd := *d
	if d.Init != nil {
		init, err := c.checkInit(d.Type, d.Init)
		if err != nil {
			return nil, err
		}
		nd.Init = init
	} else if d.Const {
		return nil, c.errf("const variable %s lacks initializer", d.Name)
	}
	c.scope.define(d.Name, &sym{typ: d.Type, space: d.Space, isConst: d.Const, volatile: d.Volatile})
	return &nd, nil
}

// checkInit checks an initializer against the declared type, handling
// braced aggregate initializers. It returns a rebuilt initializer — the
// input node is left untouched — with checked elements and, for braced
// lists, the declared type recorded.
func (c *checker) checkInit(t cltypes.Type, init ast.Expr) (ast.Expr, error) {
	if il, ok := init.(*ast.InitList); ok {
		nl := &ast.InitList{Elems: grabSlice(&c.a.exprs, len(il.Elems))}
		nl.SetType(t)
		switch tt := t.(type) {
		case *cltypes.Array:
			if len(il.Elems) > tt.Len {
				return nil, c.errf("too many initializers for %s", t)
			}
			for i, e := range il.Elems {
				ce, err := c.checkInit(tt.Elem, e)
				if err != nil {
					return nil, err
				}
				nl.Elems[i] = ce
			}
			return nl, nil
		case *cltypes.StructT:
			if tt.IsUnion {
				// C99: a braced union initializer initializes the first
				// member.
				if len(il.Elems) > 1 {
					return nil, c.errf("too many initializers for %s", t)
				}
				if len(il.Elems) == 1 {
					ce, err := c.checkInit(tt.Fields[0].Type, il.Elems[0])
					if err != nil {
						return nil, err
					}
					nl.Elems[0] = ce
				}
				return nl, nil
			}
			if len(il.Elems) > len(tt.Fields) {
				return nil, c.errf("too many initializers for %s", t)
			}
			for i, e := range il.Elems {
				ce, err := c.checkInit(tt.Fields[i].Type, e)
				if err != nil {
					return nil, err
				}
				nl.Elems[i] = ce
			}
			return nl, nil
		default:
			// Scalar braced initializer {x} is legal C.
			if len(il.Elems) != 1 {
				return nil, c.errf("invalid braced initializer for %s", t)
			}
			ce, err := c.checkInit(t, il.Elems[0])
			if err != nil {
				return nil, err
			}
			nl.Elems[0] = ce
			return nl, nil
		}
	}
	x, err := c.checkExpr(init)
	if err != nil {
		return nil, err
	}
	if !c.convertibleTo(x.Type(), t) {
		return nil, c.errf("cannot initialize %s with %s", t, x.Type())
	}
	return x, nil
}

// convertibleTo reports whether a value of type from may implicitly
// initialize/assign to type to.
func (c *checker) convertibleTo(from, to cltypes.Type) bool {
	if from.Equal(to) {
		return true
	}
	_, fs := from.(*cltypes.Scalar)
	_, ts := to.(*cltypes.Scalar)
	if fs && ts {
		return true // scalar conversions are implicit in C
	}
	// Null pointer constant: the literal 0 initializes any pointer.
	if _, ok := to.(*cltypes.Pointer); ok && fs {
		return true // checked by caller context; 0 is the only generated case
	}
	return false
}

func (c *checker) checkScalarCond(e ast.Expr) (ast.Expr, error) {
	x, err := c.checkExpr(e)
	if err != nil {
		return nil, err
	}
	switch x.Type().(type) {
	case *cltypes.Scalar:
		return x, nil
	case *cltypes.Pointer:
		return x, nil // pointers test against null
	}
	return nil, c.errf("condition must have scalar type, found %s", x.Type())
}
