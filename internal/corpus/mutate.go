package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/emi"
	"clfuzz/internal/generator"
	"clfuzz/internal/parser"
)

// Origin tags name how a fuzzing-step kernel came to be; they appear in
// StepRecord.Origin.
const (
	OriginFresh  = "fresh"  // fresh swarm-random generation
	OriginEMI    = "emi"    // EMI dead-block injection into a member
	OriginConst  = "const"  // integer-constant perturbation
	OriginOp     = "op"     // operator swap within a category
	OriginSplice = "splice" // statement spliced in from a donor member
)

// mutantSrcCap stops the stacked EMI growth once a member's source gets
// this large: beyond it, parse/print dominates step cost for no extra
// coverage signal.
const mutantSrcCap = 32 << 10

// Mutate derives a new kernel from corpus member m (with donor as the
// splice source; donor may be nil or m itself, which just disables
// splicing). Mutations stack: a layout-shifting EMI injection leads
// whenever the member is under the size cap — relabeling every
// downstream branch, so the mutant's executed footprint indexes fresh
// bitmap territory instead of re-walking the parent's edges — then one
// or two value/structure mutations (splice, constant perturbation,
// operator swap) pile on. The returned origin joins the applied kinds
// with "+" in application order. Every choice is a deterministic
// function of the rng stream. The returned kernel shares m's launch
// geometry and buffer metadata (EMI injection updates DeadLen); its
// source always re-parses, though semantic checking may still reject it
// — such mutants surface as contained BuildFailure outcomes downstream.
//
// An error means no mutation was applicable (or the member's source
// stopped parsing, which the admission path makes impossible).
func Mutate(rng *rand.Rand, m, donor *Member) (string, *generator.Kernel, error) {
	prog, err := parser.Parse(m.Kernel.Src)
	if err != nil {
		return "", nil, fmt.Errorf("corpus: member %d no longer parses: %v", m.ID, err)
	}
	clone := ast.CloneProgram(prog)
	k := *m.Kernel
	var applied []string
	if len(k.Src) < mutantSrcCap {
		deadLen := k.DeadLen
		if deadLen <= 1 {
			deadLen = 16
		}
		if _, err := emi.Inject(clone, emi.InjectOptions{
			Seed:       rng.Int63(),
			Blocks:     2 + rng.Intn(3),
			Substitute: rng.Intn(2) == 1,
			DeadLen:    deadLen,
		}); err == nil {
			k.DeadLen = deadLen
			applied = append(applied, OriginEMI)
		}
	}
	stack, extra := 1+rng.Intn(2), 0
	for _, kind := range rng.Perm(3) {
		if extra >= stack {
			break
		}
		switch kind {
		case 0:
			if mutateConst(rng, clone) {
				applied = append(applied, OriginConst)
				extra++
			}
		case 1:
			if mutateOp(rng, clone) {
				applied = append(applied, OriginOp)
				extra++
			}
		case 2:
			if donor == nil || donor.ID == m.ID {
				continue
			}
			dprog, err := parser.Parse(donor.Kernel.Src)
			if err != nil {
				continue
			}
			if mutateSplice(rng, clone, dprog) {
				applied = append(applied, OriginSplice)
				extra++
			}
		}
	}
	if len(applied) == 0 {
		return "", nil, fmt.Errorf("corpus: no applicable mutation for member %d", m.ID)
	}
	k.Src = ast.Print(clone)
	return strings.Join(applied, "+"), &k, nil
}

// mutateConst perturbs one randomly chosen scalar integer literal,
// truncating the new value to the literal's type so the printed program
// round-trips exactly.
func mutateConst(rng *rand.Rand, p *ast.Program) bool {
	var lits []*ast.IntLit
	walkProgram(p, func(e ast.Expr) {
		if l, ok := e.(*ast.IntLit); ok {
			if _, isScalar := l.Type().(*cltypes.Scalar); isScalar {
				lits = append(lits, l)
			}
		}
	})
	if len(lits) == 0 {
		return false
	}
	l := lits[rng.Intn(len(lits))]
	st := l.Type().(*cltypes.Scalar)
	switch rng.Intn(4) {
	case 0:
		l.Val++
	case 1:
		l.Val--
	case 2:
		l.Val ^= 1 << uint(rng.Intn(16))
	default:
		l.Val = uint64(rng.Int63())
	}
	l.Val = cltypes.Trunc(l.Val, st)
	return true
}

// opCategories are the operator families a swap stays within: the
// swapped program type-checks whenever the original did (modulo pointer
// arithmetic, which semantic checking rejects as a contained build
// failure). Div/Mod stay out — the generated subset reaches them only
// through the checked safe_* wrappers.
var opCategories = [][]ast.BinOp{
	{ast.Add, ast.Sub, ast.Mul},
	{ast.And, ast.Or, ast.Xor},
	{ast.LT, ast.LE, ast.GT, ast.GE, ast.EQ, ast.NE},
	{ast.Shl, ast.Shr},
}

func opCategory(op ast.BinOp) []ast.BinOp {
	for _, cat := range opCategories {
		for _, o := range cat {
			if o == op {
				return cat
			}
		}
	}
	return nil
}

// mutateOp swaps one randomly chosen binary operator for another member
// of its category.
func mutateOp(rng *rand.Rand, p *ast.Program) bool {
	var bins []*ast.Binary
	walkProgram(p, func(e ast.Expr) {
		if b, ok := e.(*ast.Binary); ok && opCategory(b.Op) != nil {
			bins = append(bins, b)
		}
	})
	if len(bins) == 0 {
		return false
	}
	b := bins[rng.Intn(len(bins))]
	cat := opCategory(b.Op)
	next := cat[rng.Intn(len(cat))]
	if next == b.Op {
		next = cat[(indexOf(cat, b.Op)+1)%len(cat)]
	}
	b.Op = next
	return true
}

func indexOf(cat []ast.BinOp, op ast.BinOp) int {
	for i, o := range cat {
		if o == op {
			return i
		}
	}
	return 0
}

// mutateSplice inserts a cloned top-level statement from the donor
// kernel into the target kernel body at a random position, restricted to
// donor statements whose free variables are declared before the
// insertion point and whose calls resolve in the target (donor-private
// helper functions disqualify a statement; builtins pass). Declaration
// statements are excluded — the generators' name counters collide, so a
// spliced declaration would nearly always redeclare.
func mutateSplice(rng *rand.Rand, target, donor *ast.Program) bool {
	tk, dk := target.Kernel(), donor.Kernel()
	if tk == nil || tk.Body == nil || dk == nil || dk.Body == nil || len(dk.Body.Stmts) == 0 {
		return false
	}
	pos := rng.Intn(len(tk.Body.Stmts) + 1)
	avail := make(map[string]bool)
	for _, p := range tk.Params {
		avail[p.Name] = true
	}
	for _, g := range target.Globals {
		avail[g.Name] = true
	}
	for _, s := range tk.Body.Stmts[:pos] {
		if ds, ok := s.(*ast.DeclStmt); ok {
			avail[ds.Decl.Name] = true
		}
	}
	targetFuncs := make(map[string]bool)
	for _, f := range target.Funcs {
		targetFuncs[f.Name] = true
	}
	donorFuncs := make(map[string]bool)
	for _, f := range donor.Funcs {
		donorFuncs[f.Name] = true
	}
	var candidates []ast.Stmt
	for _, s := range dk.Body.Stmts {
		if _, isDecl := s.(*ast.DeclStmt); isDecl {
			continue
		}
		ok := true
		walkStmt(s, func(e ast.Expr) {
			switch x := e.(type) {
			case *ast.VarRef:
				if !avail[x.Name] {
					ok = false
				}
			case *ast.Call:
				// A call to a donor-defined helper cannot resolve in the
				// target; builtins (defined in neither program) can.
				if donorFuncs[x.Name] && !targetFuncs[x.Name] {
					ok = false
				}
			}
		})
		if ok {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return false
	}
	st := ast.CloneStmt(candidates[rng.Intn(len(candidates))])
	stmts := tk.Body.Stmts
	tk.Body.Stmts = append(stmts[:pos:pos], append([]ast.Stmt{st}, stmts[pos:]...)...)
	return true
}

// walkProgram visits every expression of every function body and global
// initializer.
func walkProgram(p *ast.Program, f func(ast.Expr)) {
	for _, g := range p.Globals {
		walkExpr(g.Init, f)
	}
	for _, fn := range p.Funcs {
		if fn.Body != nil {
			walkStmt(fn.Body, f)
		}
	}
}

func walkStmt(s ast.Stmt, f func(ast.Expr)) {
	switch x := s.(type) {
	case *ast.DeclStmt:
		walkExpr(x.Decl.Init, f)
	case *ast.ExprStmt:
		walkExpr(x.X, f)
	case *ast.Block:
		for _, st := range x.Stmts {
			walkStmt(st, f)
		}
	case *ast.If:
		walkExpr(x.Cond, f)
		walkStmt(x.Then, f)
		if x.Else != nil {
			walkStmt(x.Else, f)
		}
	case *ast.For:
		if x.Init != nil {
			walkStmt(x.Init, f)
		}
		walkExpr(x.Cond, f)
		walkExpr(x.Post, f)
		walkStmt(x.Body, f)
	case *ast.While:
		walkExpr(x.Cond, f)
		walkStmt(x.Body, f)
	case *ast.DoWhile:
		walkStmt(x.Body, f)
		walkExpr(x.Cond, f)
	case *ast.Return:
		walkExpr(x.X, f)
	}
}

func walkExpr(e ast.Expr, f func(ast.Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *ast.Unary:
		walkExpr(x.X, f)
	case *ast.Binary:
		walkExpr(x.L, f)
		walkExpr(x.R, f)
	case *ast.AssignExpr:
		walkExpr(x.LHS, f)
		walkExpr(x.RHS, f)
	case *ast.Cond:
		walkExpr(x.C, f)
		walkExpr(x.T, f)
		walkExpr(x.F, f)
	case *ast.Call:
		for _, a := range x.Args {
			walkExpr(a, f)
		}
	case *ast.Index:
		walkExpr(x.Base, f)
		walkExpr(x.Idx, f)
	case *ast.Member:
		walkExpr(x.Base, f)
	case *ast.Swizzle:
		walkExpr(x.Base, f)
	case *ast.VecLit:
		for _, el := range x.Elems {
			walkExpr(el, f)
		}
	case *ast.Cast:
		walkExpr(x.X, f)
	case *ast.InitList:
		for _, el := range x.Elems {
			walkExpr(el, f)
		}
	}
}
