package reduce

import (
	"fmt"

	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/oracle"
	"clfuzz/internal/parser"
)

// Options configures a reduction.
type Options struct {
	// Interesting reports whether a candidate kernel source still
	// reproduces the behaviour being chased. It must be deterministic.
	Interesting func(src string) bool
	// ND and MakeArgs describe how to launch candidates for validity
	// checking on the reference configuration.
	ND       exec.NDRange
	MakeArgs func() (exec.Args, *exec.Buffer)
	// MaxRounds bounds fixpoint iterations (default 8).
	MaxRounds int
}

// Result reports a reduction.
type Result struct {
	Src        string
	Rounds     int
	Candidates int // candidate variants tried
	Accepted   int // candidates that stayed interesting and valid
}

// Reduce shrinks src while opts.Interesting holds and the candidate stays
// a well-defined deterministic kernel.
func Reduce(src string, opts Options) (*Result, error) {
	if opts.Interesting == nil {
		return nil, fmt.Errorf("reduce: Interesting predicate is required")
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 8
	}
	if !opts.Interesting(src) {
		return nil, fmt.Errorf("reduce: initial test case is not interesting")
	}
	// Normalize to the printer's canonical form so size comparisons
	// between the current best and printed candidates are meaningful.
	if prog, err := parser.Parse(src); err == nil {
		canon := ast.Print(prog)
		if opts.Interesting(canon) {
			src = canon
		}
	}
	r := &Result{Src: src}
	for round := 0; round < opts.MaxRounds; round++ {
		r.Rounds = round + 1
		improved := false
		prog, err := parser.Parse(r.Src)
		if err != nil {
			return nil, fmt.Errorf("reduce: current source does not parse: %v", err)
		}
		// Pass 1: try dropping whole non-kernel functions (with their
		// call sites replaced by nothing — only functions never called).
		for _, cand := range dropFunctionCandidates(prog) {
			if r.try(cand, opts) {
				improved = true
			}
		}
		// Pass 2: statement deletion, coarse to fine.
		prog, _ = parser.Parse(r.Src)
		for _, cand := range dropStatementCandidates(prog) {
			if r.try(cand, opts) {
				improved = true
			}
		}
		// Pass 3: expression simplification (replace subtrees by 0/1).
		prog, _ = parser.Parse(r.Src)
		for _, cand := range simplifyExprCandidates(prog) {
			if r.try(cand, opts) {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return r, nil
}

// try validates and tests one candidate; on success it becomes the current
// best and try reports true.
func (r *Result) try(cand *ast.Program, opts Options) bool {
	r.Candidates++
	src := ast.Print(cand)
	if len(src) >= len(r.Src) {
		return false
	}
	if !valid(src, opts) {
		return false
	}
	if !opts.Interesting(src) {
		return false
	}
	r.Src = src
	r.Accepted++
	return true
}

// valid checks the candidate on the reference configuration with the
// undefined-behaviour checker on: it must build and run cleanly (no race,
// no divergence, no crash) at both optimization levels with equal results.
// This is the concurrency-aware validity check of §8.
func valid(src string, opts Options) bool {
	ref := device.Reference()
	var first []uint64
	for _, optimize := range []bool{false, true} {
		cr := ref.Compile(src, optimize)
		if cr.Outcome != device.OK {
			return false
		}
		var args exec.Args
		var result *exec.Buffer
		if opts.MakeArgs != nil {
			args, result = opts.MakeArgs()
		} else {
			result = exec.NewBuffer(cltypes.TULong, opts.ND.GlobalLinear())
			args = exec.Args{"result": {Buf: result}}
		}
		rr := cr.Kernel.Run(opts.ND, args, result, device.RunOptions{CheckRaces: true})
		if rr.Outcome != device.OK {
			return false
		}
		if first == nil {
			first = rr.Output
		} else if !oracle.Equal(first, rr.Output) {
			return false
		}
	}
	return true
}

// dropFunctionCandidates yields one candidate per droppable function: the
// program without that function definition (and without its forward
// declaration), provided nothing calls it.
func dropFunctionCandidates(prog *ast.Program) []*ast.Program {
	var out []*ast.Program
	for _, f := range prog.Funcs {
		if f.IsKernel || f.Body == nil {
			continue
		}
		if functionCalled(prog, f.Name) {
			continue
		}
		cp := ast.CloneProgram(prog)
		var kept []*ast.FuncDecl
		for _, g := range cp.Funcs {
			if g.Name != f.Name {
				kept = append(kept, g)
			}
		}
		cp.Funcs = kept
		out = append(out, cp)
	}
	return out
}

func functionCalled(prog *ast.Program, name string) bool {
	called := false
	for _, f := range prog.Funcs {
		if f.Body == nil || f.Name == name {
			continue
		}
		walkBlockExprs(f.Body, func(e ast.Expr) {
			if c, ok := e.(*ast.Call); ok && c.Name == name {
				called = true
			}
		})
	}
	return called
}

// dropStatementCandidates yields candidates with one statement (or one
// contiguous chunk) removed from some block of some function. Statements
// are addressed positionally over a fresh clone per candidate.
func dropStatementCandidates(prog *ast.Program) []*ast.Program {
	var out []*ast.Program
	// Address blocks by (function index, path); enumerate on the original,
	// then re-resolve on a clone.
	type target struct {
		fn    int
		path  []int // child block path, see blockAt
		idx   int
		count int
	}
	var targets []target
	for fi, f := range prog.Funcs {
		if f.Body == nil {
			continue
		}
		enumerateBlocks(f.Body, nil, func(path []int, b *ast.Block) {
			n := len(b.Stmts)
			// Halves first (delta debugging), then single statements.
			if n >= 4 {
				targets = append(targets, target{fi, append([]int(nil), path...), 0, n / 2})
				targets = append(targets, target{fi, append([]int(nil), path...), n / 2, n - n/2})
			}
			for i := 0; i < n; i++ {
				targets = append(targets, target{fi, append([]int(nil), path...), i, 1})
			}
		})
	}
	for _, tg := range targets {
		cp := ast.CloneProgram(prog)
		b := blockAt(cp.Funcs[tg.fn].Body, tg.path)
		if b == nil || tg.idx+tg.count > len(b.Stmts) {
			continue
		}
		b.Stmts = append(b.Stmts[:tg.idx], b.Stmts[tg.idx+tg.count:]...)
		out = append(out, cp)
	}
	return out
}

// enumerateBlocks visits every block in a body with a structural path.
func enumerateBlocks(b *ast.Block, path []int, fn func(path []int, b *ast.Block)) {
	fn(path, b)
	for i, s := range b.Stmts {
		childPath := append(append([]int(nil), path...), i)
		switch st := s.(type) {
		case *ast.Block:
			enumerateBlocks(st, childPath, fn)
		case *ast.If:
			enumerateBlocks(st.Then, append(childPath, 0), fn)
			if eb, ok := st.Else.(*ast.Block); ok {
				enumerateBlocks(eb, append(childPath, 1), fn)
			}
		case *ast.For:
			enumerateBlocks(st.Body, append(childPath, 0), fn)
		case *ast.While:
			enumerateBlocks(st.Body, append(childPath, 0), fn)
		case *ast.DoWhile:
			enumerateBlocks(st.Body, append(childPath, 0), fn)
		}
	}
}

// blockAt resolves a structural path produced by enumerateBlocks.
func blockAt(b *ast.Block, path []int) *ast.Block {
	if len(path) == 0 {
		return b
	}
	if path[0] >= len(b.Stmts) {
		return nil
	}
	s := b.Stmts[path[0]]
	rest := path[1:]
	switch st := s.(type) {
	case *ast.Block:
		return blockAt(st, rest)
	case *ast.If:
		if len(rest) == 0 {
			return nil
		}
		if rest[0] == 0 {
			return blockAt(st.Then, rest[1:])
		}
		if eb, ok := st.Else.(*ast.Block); ok {
			return blockAt(eb, rest[1:])
		}
		return nil
	case *ast.For:
		if len(rest) == 0 || rest[0] != 0 {
			return nil
		}
		return blockAt(st.Body, rest[1:])
	case *ast.While:
		if len(rest) == 0 || rest[0] != 0 {
			return nil
		}
		return blockAt(st.Body, rest[1:])
	case *ast.DoWhile:
		if len(rest) == 0 || rest[0] != 0 {
			return nil
		}
		return blockAt(st.Body, rest[1:])
	}
	return nil
}

// simplifyExprCandidates yields candidates where one interesting
// expression site (an if condition or an assignment right-hand side) is
// replaced by a literal.
func simplifyExprCandidates(prog *ast.Program) []*ast.Program {
	// Count the sites on the original, then produce one clone per site.
	count := 0
	for _, f := range prog.Funcs {
		if f.Body != nil {
			walkBlockStmts(f.Body, func(s ast.Stmt) { count += sitesIn(s) })
		}
	}
	var out []*ast.Program
	for site := 0; site < count && site < 64; site++ {
		cp := ast.CloneProgram(prog)
		idx := 0
		for _, f := range cp.Funcs {
			if f.Body == nil {
				continue
			}
			walkBlockStmts(f.Body, func(s ast.Stmt) {
				idx += replaceSite(s, site, idx)
			})
		}
		out = append(out, cp)
	}
	return out
}

func sitesIn(s ast.Stmt) int {
	switch st := s.(type) {
	case *ast.If:
		return 1
	case *ast.ExprStmt:
		if _, ok := st.X.(*ast.AssignExpr); ok {
			return 1
		}
	}
	return 0
}

// replaceSite replaces the expression at global index `site` with a zero
// literal if this statement owns it; it returns the number of sites this
// statement contributes (so the caller can advance the index).
func replaceSite(s ast.Stmt, site, at int) int {
	switch st := s.(type) {
	case *ast.If:
		if at == site {
			st.Cond = ast.NewIntLit(0, cltypes.TInt)
		}
		return 1
	case *ast.ExprStmt:
		if asn, ok := st.X.(*ast.AssignExpr); ok {
			if at == site {
				if t, ok := asn.LHS.Type().(*cltypes.Scalar); ok {
					asn.RHS = ast.NewIntLit(0, t)
					asn.Op = ast.Assign
				}
			}
			return 1
		}
	}
	return 0
}

func walkBlockStmts(b *ast.Block, fn func(ast.Stmt)) {
	for _, s := range b.Stmts {
		fn(s)
		switch st := s.(type) {
		case *ast.Block:
			walkBlockStmts(st, fn)
		case *ast.If:
			walkBlockStmts(st.Then, fn)
			if eb, ok := st.Else.(*ast.Block); ok {
				walkBlockStmts(eb, fn)
			}
		case *ast.For:
			walkBlockStmts(st.Body, fn)
		case *ast.While:
			walkBlockStmts(st.Body, fn)
		case *ast.DoWhile:
			walkBlockStmts(st.Body, fn)
		}
	}
}

// walkBlockExprs visits every expression in a block.
func walkBlockExprs(b *ast.Block, fn func(ast.Expr)) {
	var walkE func(ast.Expr)
	walkE = func(e ast.Expr) {
		if e == nil {
			return
		}
		fn(e)
		switch ex := e.(type) {
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
		case *ast.Call:
			for _, a := range ex.Args {
				walkE(a)
			}
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
	walkBlockStmts(b, func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.DeclStmt:
			walkE(st.Decl.Init)
		case *ast.ExprStmt:
			walkE(st.X)
		case *ast.If:
			walkE(st.Cond)
		case *ast.For:
			walkE(st.Cond)
			walkE(st.Post)
		case *ast.While:
			walkE(st.Cond)
		case *ast.DoWhile:
			walkE(st.Cond)
		case *ast.Return:
			walkE(st.X)
		}
	})
}
