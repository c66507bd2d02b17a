package ast

import "fmt"

// CloneExpr deep-copies an expression tree, preserving checked types.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch ex := e.(type) {
	case *IntLit:
		cp := *ex
		return &cp
	case *VarRef:
		cp := *ex
		return &cp
	case *Unary:
		cp := *ex
		cp.X = CloneExpr(ex.X)
		return &cp
	case *Binary:
		cp := *ex
		cp.L = CloneExpr(ex.L)
		cp.R = CloneExpr(ex.R)
		return &cp
	case *AssignExpr:
		cp := *ex
		cp.LHS = CloneExpr(ex.LHS)
		cp.RHS = CloneExpr(ex.RHS)
		return &cp
	case *Cond:
		cp := *ex
		cp.C = CloneExpr(ex.C)
		cp.T = CloneExpr(ex.T)
		cp.F = CloneExpr(ex.F)
		return &cp
	case *Call:
		cp := *ex
		cp.Args = make([]Expr, len(ex.Args))
		for i, a := range ex.Args {
			cp.Args[i] = CloneExpr(a)
		}
		return &cp
	case *Index:
		cp := *ex
		cp.Base = CloneExpr(ex.Base)
		cp.Idx = CloneExpr(ex.Idx)
		return &cp
	case *Member:
		cp := *ex
		cp.Base = CloneExpr(ex.Base)
		return &cp
	case *Swizzle:
		cp := *ex
		cp.Base = CloneExpr(ex.Base)
		return &cp
	case *VecLit:
		cp := *ex
		cp.Elems = make([]Expr, len(ex.Elems))
		for i, el := range ex.Elems {
			cp.Elems[i] = CloneExpr(el)
		}
		return &cp
	case *Cast:
		cp := *ex
		cp.X = CloneExpr(ex.X)
		return &cp
	case *InitList:
		cp := *ex
		cp.Elems = make([]Expr, len(ex.Elems))
		for i, el := range ex.Elems {
			cp.Elems[i] = CloneExpr(el)
		}
		return &cp
	}
	panic(fmt.Sprintf("ast: cannot clone expression %T", e))
}

// CloneStmt deep-copies a statement tree.
func CloneStmt(s Stmt) Stmt {
	if s == nil {
		return nil
	}
	switch st := s.(type) {
	case *DeclStmt:
		d := *st.Decl
		d.Init = CloneExpr(st.Decl.Init)
		return &DeclStmt{Decl: &d}
	case *ExprStmt:
		return &ExprStmt{X: CloneExpr(st.X)}
	case *Block:
		return CloneBlock(st)
	case *If:
		cp := &If{Cond: CloneExpr(st.Cond), Then: CloneBlock(st.Then)}
		if st.Else != nil {
			cp.Else = CloneStmt(st.Else)
		}
		return cp
	case *For:
		return &For{
			Init: CloneStmt(st.Init),
			Cond: CloneExpr(st.Cond),
			Post: CloneExpr(st.Post),
			Body: CloneBlock(st.Body),
		}
	case *While:
		return &While{Cond: CloneExpr(st.Cond), Body: CloneBlock(st.Body)}
	case *DoWhile:
		return &DoWhile{Body: CloneBlock(st.Body), Cond: CloneExpr(st.Cond)}
	case *Break:
		return &Break{}
	case *Continue:
		return &Continue{}
	case *Return:
		return &Return{X: CloneExpr(st.X)}
	case *Empty:
		return &Empty{}
	}
	panic(fmt.Sprintf("ast: cannot clone statement %T", s))
}

// CloneBlock deep-copies a block.
func CloneBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	cp := &Block{Stmts: make([]Stmt, len(b.Stmts))}
	for i, s := range b.Stmts {
		cp.Stmts[i] = CloneStmt(s)
	}
	return cp
}

// CloneProgram deep-copies a program. Type definitions are shared (they are
// immutable after parsing).
func CloneProgram(p *Program) *Program {
	cp := &Program{Structs: p.Structs}
	for _, g := range p.Globals {
		d := *g
		d.Init = CloneExpr(g.Init)
		cp.Globals = append(cp.Globals, &d)
	}
	for _, f := range p.Funcs {
		nf := *f
		nf.Params = append([]Param(nil), f.Params...)
		nf.Body = CloneBlock(f.Body)
		cp.Funcs = append(cp.Funcs, &nf)
	}
	return cp
}
