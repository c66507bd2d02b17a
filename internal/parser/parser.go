package parser

import (
	"fmt"
	"strconv"

	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/lexer"
)

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

// Parse parses a translation unit. The first lexical error in src is
// reported ahead of any syntax error, wherever the two fall.
func Parse(src string) (*ast.Program, error) {
	p := newParser(src)
	prog, err := p.program()
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseExpr parses a single expression (used in tests).
func ParseExpr(src string) (ast.Expr, error) {
	p := newParser(src)
	e, err := p.expr()
	if err == nil && p.peek().Kind != lexer.EOF {
		err = p.errf("trailing tokens after expression")
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return e, nil
}

// parser pulls tokens from the lexer on demand. The grammar looks at
// most two tokens past the current one and never backs up, so a window
// of three holds every token it can still inspect.
type parser struct {
	lex      lexer.Lexer
	win      [3]lexer.Token // the current token and two of lookahead
	lexErr   error
	typedefs map[string]cltypes.Type
	structs  map[string]*cltypes.StructT
	prog     *ast.Program
}

func newParser(src string) parser {
	p := parser{lex: lexer.New(src), typedefs: map[string]cltypes.Type{}, structs: map[string]*cltypes.StructT{}}
	for range p.win {
		p.next()
	}
	return p
}

func (p *parser) peek() lexer.Token { return p.win[0] }

// peekN returns the token n places past the current one. Past the end
// of input, and past a lexical error, every token is EOF.
func (p *parser) peekN(n int) lexer.Token { return p.win[n] }

// next consumes the current token and scans one more into the window.
// After a lexical error the window fills with zero Tokens, which are EOF.
func (p *parser) next() lexer.Token {
	t := p.win[0]
	p.win[0], p.win[1], p.win[2] = p.win[1], p.win[2], lexer.Token{}
	if p.lexErr == nil {
		p.win[2], p.lexErr = p.lex.Next()
	}
	return t
}

// finish settles a parse's error: the source's first lexical error wins,
// so after a syntax error the rest of the input is still scanned for one.
func (p *parser) finish(err error) error {
	for err != nil && p.next().Kind != lexer.EOF {
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// found names the current token in a diagnostic.
func (p *parser) found() string {
	t := p.peek()
	if t.Kind == lexer.EOF {
		return "end of input"
	}
	return strconv.Quote(t.Text)
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) accept(text string) bool {
	t := p.peek()
	if (t.Kind == lexer.Punct || t.Kind == lexer.Keyword) && t.Text == text {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %s", text, p.found())
	}
	return nil
}

func (p *parser) isKw(text string) bool {
	t := p.peek()
	return t.Kind == lexer.Keyword && t.Text == text
}

// ---- Types ----

// typeStart reports whether the token at offset n begins a type specifier.
func (p *parser) typeStart(n int) bool {
	t := p.peekN(n)
	switch t.Kind {
	case lexer.Keyword:
		switch t.Text {
		case "struct", "union", "const", "volatile", "global", "local", "constant", "private", "void":
			return true
		}
		return false
	case lexer.Ident:
		if _, ok := cltypes.ScalarByName(t.Text); ok {
			return true
		}
		if _, ok := cltypes.VectorByName(t.Text); ok {
			return true
		}
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

// typeSpec holds the parsed leading type specifier and qualifiers.
type typeSpec struct {
	base     cltypes.Type
	space    cltypes.AddrSpace
	isConst  bool
	volatile bool
}

func (p *parser) parseTypeSpec() (typeSpec, error) {
	ts := typeSpec{base: nil, space: cltypes.Private}
	for {
		t := p.peek()
		if t.Kind == lexer.Keyword {
			switch t.Text {
			case "const":
				p.next()
				ts.isConst = true
				continue
			case "volatile":
				p.next()
				ts.volatile = true
				continue
			case "global":
				p.next()
				ts.space = cltypes.Global
				continue
			case "local":
				p.next()
				ts.space = cltypes.Local
				continue
			case "constant":
				p.next()
				ts.space = cltypes.Constant
				continue
			case "private":
				p.next()
				ts.space = cltypes.Private
				continue
			case "void":
				p.next()
				ts.base = cltypes.TVoid
				return ts, nil
			case "struct", "union":
				isUnion := t.Text == "union"
				p.next()
				if p.peek().Kind != lexer.Ident {
					return ts, p.errf("expected struct/union tag")
				}
				name := p.next().Text
				st, ok := p.structs[name]
				if !ok {
					return ts, p.errf("unknown %s %s", t.Text, name)
				}
				if st.IsUnion != isUnion {
					return ts, p.errf("tag %s declared with different aggregate kind", name)
				}
				ts.base = st
				return ts, nil
			}
		}
		break
	}
	t := p.peek()
	if t.Kind != lexer.Ident {
		return ts, p.errf("expected type name, found %s", p.found())
	}
	if s, ok := cltypes.ScalarByName(t.Text); ok {
		p.next()
		ts.base = s
		return ts, nil
	}
	if v, ok := cltypes.VectorByName(t.Text); ok {
		p.next()
		ts.base = v
		return ts, nil
	}
	if td, ok := p.typedefs[t.Text]; ok {
		p.next()
		ts.base = td
		return ts, nil
	}
	return ts, p.errf("unknown type %q", t.Text)
}

// parseDeclarator parses *-prefixes, the name, and array suffixes, applied
// to the base type.
func (p *parser) parseDeclarator(ts typeSpec) (string, cltypes.Type, error) {
	stars := 0
	for p.accept("*") {
		stars++
	}
	if p.peek().Kind != lexer.Ident {
		return "", nil, p.errf("expected declarator name, found %s", p.found())
	}
	name := p.next().Text
	var dims []int
	for p.accept("[") {
		t := p.peek()
		if t.Kind != lexer.Number {
			return "", nil, p.errf("expected constant array length")
		}
		p.next()
		dims = append(dims, int(t.Val))
		if err := p.expect("]"); err != nil {
			return "", nil, err
		}
	}
	typ := ts.base
	for i := 0; i < stars; i++ {
		space := cltypes.Private
		if i == stars-1 {
			space = ts.space
		}
		typ = &cltypes.Pointer{Elem: typ, Space: space}
	}
	for i := len(dims) - 1; i >= 0; i-- {
		typ = cltypes.ArrayOf(typ, dims[i])
	}
	return name, typ, nil
}

// ---- Top level ----

func (p *parser) program() (*ast.Program, error) {
	p.prog = &ast.Program{}
	for p.peek().Kind != lexer.EOF {
		switch {
		case p.isKw("typedef"):
			if err := p.typedefDecl(); err != nil {
				return nil, err
			}
		case p.isKw("struct") || p.isKw("union"):
			// Either a struct definition or a global declaration whose type
			// is a previously defined struct. Definition iff tag followed
			// by '{'.
			if p.peekN(1).Kind == lexer.Ident && p.peekN(2).Text == "{" {
				if err := p.structDef(); err != nil {
					return nil, err
				}
				continue
			}
			if err := p.topDecl(); err != nil {
				return nil, err
			}
		default:
			if err := p.topDecl(); err != nil {
				return nil, err
			}
		}
	}
	return p.prog, nil
}

func (p *parser) typedefDecl() error {
	p.next() // typedef
	var st *cltypes.StructT
	if p.isKw("struct") || p.isKw("union") {
		isUnion := p.peek().Text == "union"
		p.next()
		tag := ""
		if p.peek().Kind == lexer.Ident {
			tag = p.next().Text
		}
		if p.peek().Text != "{" {
			// typedef of an existing struct: typedef struct S T;
			if tag == "" {
				return p.errf("expected struct body or tag in typedef")
			}
			existing, ok := p.structs[tag]
			if !ok {
				return p.errf("unknown struct %s in typedef", tag)
			}
			st = existing
		} else {
			var err error
			st, err = p.structBody(tag, isUnion)
			if err != nil {
				return err
			}
		}
		if p.peek().Kind != lexer.Ident {
			return p.errf("expected typedef name")
		}
		name := p.next().Text
		if st.Name == "" {
			st.Name = name
			p.structs[name] = st
		}
		p.typedefs[name] = st
		return p.expect(";")
	}
	ts, err := p.parseTypeSpec()
	if err != nil {
		return err
	}
	if p.peek().Kind != lexer.Ident {
		return p.errf("expected typedef name")
	}
	name := p.next().Text
	p.typedefs[name] = ts.base
	return p.expect(";")
}

func (p *parser) structDef() error {
	isUnion := p.peek().Text == "union"
	p.next()
	if p.peek().Kind != lexer.Ident {
		return p.errf("expected struct tag")
	}
	tag := p.next().Text
	st, err := p.structBody(tag, isUnion)
	if err != nil {
		return err
	}
	_ = st
	return p.expect(";")
}

// structBody parses "{ fields }" and registers the type under tag (if any).
func (p *parser) structBody(tag string, isUnion bool) (*cltypes.StructT, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	st := &cltypes.StructT{Name: tag, IsUnion: isUnion}
	if tag != "" {
		// Register before parsing fields so self-referential pointers work.
		p.structs[tag] = st
	}
	for !p.accept("}") {
		ts, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		for {
			name, typ, err := p.parseDeclarator(ts)
			if err != nil {
				return nil, err
			}
			st.Fields = append(st.Fields, cltypes.Field{Name: name, Type: typ, Volatile: ts.volatile})
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if tag != "" {
		p.prog.Structs = append(p.prog.Structs, st)
	} else {
		// Anonymous struct in a typedef: record once named.
		p.prog.Structs = append(p.prog.Structs, st)
	}
	return st, nil
}

// topDecl parses a function definition/declaration or a program-scope
// variable.
func (p *parser) topDecl() error {
	isKernel := false
	if p.accept("kernel") {
		isKernel = true
	}
	ts, err := p.parseTypeSpec()
	if err != nil {
		return err
	}
	stars := 0
	for p.accept("*") {
		stars++
	}
	if p.peek().Kind != lexer.Ident {
		return p.errf("expected declarator name, found %s", p.found())
	}
	name := p.next().Text
	if p.peek().Text == "(" {
		ret := ts.base
		for i := 0; i < stars; i++ {
			ret = cltypes.PtrTo(ret)
		}
		return p.funcRest(name, ret, isKernel)
	}
	if isKernel {
		return p.errf("kernel qualifier on non-function")
	}
	// Program-scope variable (constant address space in OpenCL 1.x).
	var dims []int
	for p.accept("[") {
		t := p.peek()
		if t.Kind != lexer.Number {
			return p.errf("expected constant array length")
		}
		p.next()
		dims = append(dims, int(t.Val))
		if err := p.expect("]"); err != nil {
			return err
		}
	}
	typ := ts.base
	for i := 0; i < stars; i++ {
		typ = cltypes.PtrTo(typ)
	}
	for i := len(dims) - 1; i >= 0; i-- {
		typ = cltypes.ArrayOf(typ, dims[i])
	}
	d := &ast.VarDecl{Name: name, Type: typ, Space: ts.space, Volatile: ts.volatile, Const: ts.isConst}
	if p.accept("=") {
		init, err := p.initializer()
		if err != nil {
			return err
		}
		d.Init = init
	}
	p.prog.Globals = append(p.prog.Globals, d)
	return p.expect(";")
}

func (p *parser) funcRest(name string, ret cltypes.Type, isKernel bool) error {
	if err := p.expect("("); err != nil {
		return err
	}
	f := &ast.FuncDecl{Name: name, Ret: ret, IsKernel: isKernel}
	if p.isKw("void") && p.peekN(1).Text == ")" {
		p.next()
	}
	for p.peek().Text != ")" {
		ts, err := p.parseTypeSpec()
		if err != nil {
			return err
		}
		pname, ptyp, err := p.parseDeclarator(ts)
		if err != nil {
			return err
		}
		f.Params = append(f.Params, ast.Param{Name: pname, Type: ptyp})
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	if p.accept(";") {
		p.prog.Funcs = append(p.prog.Funcs, f) // forward declaration
		return nil
	}
	body, err := p.blockStmt()
	if err != nil {
		return err
	}
	f.Body = body
	p.prog.Funcs = append(p.prog.Funcs, f)
	return nil
}

// ---- Statements ----

func (p *parser) blockStmt() (*ast.Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &ast.Block{}
	for !p.accept("}") {
		if p.peek().Kind == lexer.EOF {
			return nil, p.errf("unexpected end of input in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *parser) stmt() (ast.Stmt, error) {
	t := p.peek()
	switch {
	case t.Text == "{" && t.Kind == lexer.Punct:
		return p.blockStmt()
	case p.isKw("if"):
		return p.ifStmt()
	case p.isKw("for"):
		return p.forStmt()
	case p.isKw("while"):
		return p.whileStmt()
	case p.isKw("do"):
		return p.doStmt()
	case p.isKw("break"):
		p.next()
		return &ast.Break{}, p.expect(";")
	case p.isKw("continue"):
		p.next()
		return &ast.Continue{}, p.expect(";")
	case p.isKw("return"):
		p.next()
		if p.accept(";") {
			return &ast.Return{}, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ast.Return{X: e}, p.expect(";")
	case t.Text == ";" && t.Kind == lexer.Punct:
		p.next()
		return &ast.Empty{}, nil
	case p.typeStart(0):
		d, err := p.localDecl()
		if err != nil {
			return nil, err
		}
		return d, p.expect(";")
	default:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ast.ExprStmt{X: e}, p.expect(";")
	}
}

func (p *parser) localDecl() (*ast.DeclStmt, error) {
	ts, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	name, typ, err := p.parseDeclarator(ts)
	if err != nil {
		return nil, err
	}
	d := &ast.VarDecl{Name: name, Type: typ, Space: ts.space, Volatile: ts.volatile, Const: ts.isConst}
	if p.accept("=") {
		init, err := p.initializer()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return &ast.DeclStmt{Decl: d}, nil
}

func (p *parser) initializer() (ast.Expr, error) {
	if p.peek().Text == "{" && p.peek().Kind == lexer.Punct {
		p.next()
		il := &ast.InitList{}
		for p.peek().Text != "}" {
			e, err := p.initializer()
			if err != nil {
				return nil, err
			}
			il.Elems = append(il.Elems, e)
			if !p.accept(",") {
				break
			}
		}
		return il, p.expect("}")
	}
	return p.assignExpr()
}

func (p *parser) ifStmt() (ast.Stmt, error) {
	p.next()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	st := &ast.If{Cond: cond, Then: then}
	if p.accept("else") {
		if p.isKw("if") {
			els, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		} else {
			els, err := p.stmtAsBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

// stmtAsBlock parses a statement and wraps non-block statements in a block,
// normalizing the tree (the printer always emits braces).
func (p *parser) stmtAsBlock() (*ast.Block, error) {
	if p.peek().Text == "{" && p.peek().Kind == lexer.Punct {
		return p.blockStmt()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return &ast.Block{Stmts: []ast.Stmt{s}}, nil
}

func (p *parser) forStmt() (ast.Stmt, error) {
	p.next()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	st := &ast.For{}
	switch {
	case p.accept(";"):
		st.Init = nil
	case p.typeStart(0):
		d, err := p.localDecl()
		if err != nil {
			return nil, err
		}
		st.Init = d
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	default:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Init = &ast.ExprStmt{X: e}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(";") {
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Cond = c
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if p.peek().Text != ")" {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Post = e
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

func (p *parser) whileStmt() (ast.Stmt, error) {
	p.next()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	return &ast.While{Cond: cond, Body: body}, nil
}

func (p *parser) doStmt() (ast.Stmt, error) {
	p.next()
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	if err := p.expect("while"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return &ast.DoWhile{Body: body, Cond: cond}, p.expect(";")
}

// ---- Expressions ----

// expr parses a full expression including the comma operator.
func (p *parser) expr() (ast.Expr, error) {
	e, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == lexer.Punct && p.peek().Text == "," {
		p.next()
		r, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		e = &ast.Binary{Op: ast.Comma, L: e, R: r}
	}
	return e, nil
}

var assignOps = map[string]ast.AssignOp{
	"=": ast.Assign, "+=": ast.AddAssign, "-=": ast.SubAssign,
	"*=": ast.MulAssign, "/=": ast.DivAssign, "%=": ast.ModAssign,
	"&=": ast.AndAssign, "|=": ast.OrAssign, "^=": ast.XorAssign,
	"<<=": ast.ShlAssign, ">>=": ast.ShrAssign,
}

func (p *parser) assignExpr() (ast.Expr, error) {
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == lexer.Punct {
		if op, ok := assignOps[t.Text]; ok {
			p.next()
			rhs, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			return &ast.AssignExpr{Op: op, LHS: lhs, RHS: rhs}, nil
		}
	}
	return lhs, nil
}

func (p *parser) condExpr() (ast.Expr, error) {
	c, err := p.binExpr(0)
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == lexer.Punct && p.peek().Text == "?" {
		p.next()
		t, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		f, err := p.condExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Cond{C: c, T: t, F: f}, nil
	}
	return c, nil
}

// binary operator precedence levels, loosest first.
var precLevels = [][]struct {
	text string
	op   ast.BinOp
}{
	{{"||", ast.LOr}},
	{{"&&", ast.LAnd}},
	{{"|", ast.Or}},
	{{"^", ast.Xor}},
	{{"&", ast.And}},
	{{"==", ast.EQ}, {"!=", ast.NE}},
	{{"<=", ast.LE}, {">=", ast.GE}, {"<", ast.LT}, {">", ast.GT}},
	{{"<<", ast.Shl}, {">>", ast.Shr}},
	{{"+", ast.Add}, {"-", ast.Sub}},
	{{"*", ast.Mul}, {"/", ast.Div}, {"%", ast.Mod}},
}

// binOp is a binary operator with its precedence level.
type binOp struct {
	op    ast.BinOp
	level int
}

// binOps indexes precLevels by operator spelling.
var binOps = func() map[string]binOp {
	m := map[string]binOp{}
	for level, ops := range precLevels {
		for _, o := range ops {
			m[o.text] = binOp{o.op, level}
		}
	}
	return m
}()

// binExpr parses a binary expression whose operators sit at level or
// tighter, by precedence climbing: the right operand of an operator
// takes only tighter ones, so every operator associates to the left.
func (p *parser) binExpr(level int) (ast.Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != lexer.Punct {
			return l, nil
		}
		b, ok := binOps[t.Text]
		if !ok || b.level < level {
			return l, nil
		}
		p.next()
		r, err := p.binExpr(b.level + 1)
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: b.op, L: l, R: r}
	}
}

var prefixOps = map[string]ast.UnOp{
	"-": ast.Neg, "+": ast.Pos, "~": ast.BitNot, "!": ast.LogNot,
	"&": ast.AddrOf, "*": ast.Deref,
}

func (p *parser) unaryExpr() (ast.Expr, error) {
	t := p.peek()
	if t.Kind == lexer.Punct {
		if t.Text == "++" || t.Text == "--" {
			p.next()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			op := ast.PreInc
			if t.Text == "--" {
				op = ast.PreDec
			}
			return &ast.Unary{Op: op, X: x}, nil
		}
		if op, ok := prefixOps[t.Text]; ok {
			p.next()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &ast.Unary{Op: op, X: x}, nil
		}
		if t.Text == "(" && p.typeStart(1) {
			return p.castExpr()
		}
	}
	return p.postfixExpr()
}

// castExpr parses "(type)" followed by either a parenthesized element list
// (vector literal) or a unary expression (cast).
func (p *parser) castExpr() (ast.Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	ts, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	typ := ts.base
	for p.accept("*") {
		typ = &cltypes.Pointer{Elem: typ, Space: ts.space}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if vt, ok := typ.(*cltypes.Vector); ok && p.peek().Text == "(" {
		// Vector literal: (int4)(e, e, ...).
		p.next()
		vl := &ast.VecLit{VT: vt}
		for p.peek().Text != ")" {
			e, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			vl.Elems = append(vl.Elems, e)
			if !p.accept(",") {
				break
			}
		}
		return vl, p.expect(")")
	}
	x, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	return &ast.Cast{To: typ, X: x}, nil
}

func (p *parser) postfixExpr() (ast.Expr, error) {
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != lexer.Punct {
			return e, nil
		}
		switch t.Text {
		case "[":
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &ast.Index{Base: e, Idx: idx}
		case ".":
			p.next()
			if p.peek().Kind != lexer.Ident {
				return nil, p.errf("expected member name after '.'")
			}
			e = &ast.Member{Base: e, Name: p.next().Text}
		case "->":
			p.next()
			if p.peek().Kind != lexer.Ident {
				return nil, p.errf("expected member name after '->'")
			}
			e = &ast.Member{Base: e, Name: p.next().Text, Arrow: true}
		case "++":
			p.next()
			e = &ast.Unary{Op: ast.PostInc, X: e}
		case "--":
			p.next()
			e = &ast.Unary{Op: ast.PostDec, X: e}
		case "(":
			vr, ok := e.(*ast.VarRef)
			if !ok {
				return nil, p.errf("called object is not a function name")
			}
			p.next()
			call := &ast.Call{Name: vr.Name}
			for p.peek().Text != ")" {
				a, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			e = call
		default:
			return e, nil
		}
	}
}

func (p *parser) primaryExpr() (ast.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case lexer.Number:
		p.next()
		lit := &ast.IntLit{Val: t.Val}
		switch t.Suffix {
		case "":
			if t.Val <= 0x7fffffff {
				lit.SetType(cltypes.TInt)
			} else {
				lit.SetType(cltypes.TLong)
			}
		case "u":
			if t.Val <= 0xffffffff {
				lit.SetType(cltypes.TUInt)
			} else {
				lit.SetType(cltypes.TULong)
			}
		case "l":
			lit.SetType(cltypes.TLong)
		case "ul":
			lit.SetType(cltypes.TULong)
		}
		return lit, nil
	case lexer.Ident:
		p.next()
		return ast.NewVarRef(t.Text), nil
	case lexer.Punct:
		if t.Text == "(" {
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			return e, p.expect(")")
		}
	}
	if t.Kind == lexer.EOF {
		return nil, p.errf("unexpected end of input in expression")
	}
	return nil, p.errf("unexpected token %q in expression", t.Text)
}
