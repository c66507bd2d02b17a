package parser_test

import (
	"testing"

	"clfuzz/internal/ast"
	"clfuzz/internal/generator"
	"clfuzz/internal/parser"
)

// TestRoundTrip is the printer/parser fixpoint property: for generated
// kernels in every mode, print(parse(print(k))) == print(k). This is what
// lets each simulated compiler consume the textual kernel, as real OpenCL
// drivers do.
func TestRoundTrip(t *testing.T) {
	for _, mode := range generator.Modes {
		for seed := int64(0); seed < 15; seed++ {
			k := generator.Generate(generator.Options{Mode: mode, Seed: seed, MaxTotalThreads: 64, EMIBlocks: int(seed % 3)})
			p1, err := parser.Parse(k.Src)
			if err != nil {
				t.Fatalf("%s seed %d: parse: %v", mode, seed, err)
			}
			s1 := ast.Print(p1)
			p2, err := parser.Parse(s1)
			if err != nil {
				t.Fatalf("%s seed %d: reparse: %v", mode, seed, err)
			}
			s2 := ast.Print(p2)
			if s1 != s2 {
				t.Fatalf("%s seed %d: printer/parser round trip is not a fixpoint", mode, seed)
			}
		}
	}
}

// TestParseConstructs covers the language constructs the generator does
// not exercise uniformly.
func TestParseConstructs(t *testing.T) {
	srcs := []string{
		// typedef of anonymous struct, arrow access, address-of.
		`typedef struct { int x; int y; } S;
		 kernel void k(global ulong *out) { S s = {1,2}; S *p = &s; out[0] = (ulong)(p->x + p->y); }`,
		// union with tag, first-member init.
		`union U { uint a; long b; };
		 kernel void k(global ulong *out) { union U u = {3u}; out[0] = (ulong)u.a; }`,
		// vector literals, swizzles in both syntaxes, convert.
		`kernel void k(global ulong *out) {
		   int8 v = (int8)(1,2,3,4,5,6,7,8);
		   int4 w = (v).s0246;
		   out[0] = (ulong)(uint)(w.x + w.w + convert_int((v).s7));
		 }`,
		// do-while, comma, ternary, compound assignment, hex literal.
		`kernel void k(global ulong *out) {
		   uint x = 0xffu; int i = 0;
		   do { x >>= 1; i++; } while (i < 3);
		   out[0] = (i > 2) ? ((0 , (ulong)x)) : 1UL;
		 }`,
		// forward declaration and multi-declarator struct fields.
		`struct P { int a, b; short c; };
		 int f(void);
		 kernel void k(global ulong *out) { struct P p = {1,2,3}; out[0] = (ulong)(p.a + p.b + p.c + f()); }
		 int f(void) { return 4; }`,
		// address spaces on pointers and locals, constant globals.
		`constant int table[4] = {1, 2, 3, 4};
		 kernel void k(global ulong *out) {
		   local uint tmp[8];
		   tmp[get_linear_local_id()] = 1u;
		   barrier(CLK_LOCAL_MEM_FENCE);
		   out[get_linear_global_id()] = (ulong)(uint)table[1] + (ulong)tmp[0];
		 }`,
	}
	for i, src := range srcs {
		if _, err := parser.Parse(src); err != nil {
			t.Errorf("construct %d: %v", i, err)
		}
	}
}

// TestParseErrors checks that malformed programs are rejected with
// positioned diagnostics (build failures, not panics), word for word.
// The source's first lexical error is reported even when a syntax
// error comes before it. An empty want means the source parses.
func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`kernel void k(global ulong *out) {`, `1:35: unexpected end of input in block`},
		{`kernel void k(global ulong *out) { out[0] = 1 +`, `1:48: unexpected end of input in expression`},
		{`kernel void k() { int 3x = 1; }`, `1:23: expected declarator name, found "3"`},
		{`kernel void k() { int x = ; }`, `1:27: unexpected token ";" in expression`},
		{`struct S { int }; kernel void k() {}`, `1:16: expected declarator name, found "}"`},
		{`kernel void k() { x???; }`, `1:21: unexpected token "?" in expression`},
		{`kernel int k(global ulong *out) { return 1; }`, ``}, // rejected by sema, not the parser
		{`kernel void k() { for (;;) }`, `1:28: unexpected token "}" in expression`},
		{`typedef struct T2; kernel void k() {}`, `1:18: unknown struct T2 in typedef`},
		{`kernel void k(global ulong *out) { int x = 1`, `1:45: expected ";", found end of input`},
		{`kernel void k()`, `1:16: expected "{", found end of input`},
		{`kernel void`, `1:12: expected declarator name, found end of input`},
		{`kernel`, `1:7: expected type name, found end of input`},
		{`kernel void k() { int x; x = 4 5; }`, `1:32: expected ";", found "5"`},
		// Lexical errors, before and after a syntax error.
		{`kernel void k() { int x = 0x; }`, `1:29: malformed hex literal`},
		{`kernel void k() {} @`, `1:20: unexpected character '@'`},
		{`kernel void k() { x???; } @`, `1:27: unexpected character '@'`},
		{`kernel void k() { int x = 1 } /* open`, `1:38: unterminated block comment`},
	}
	for _, c := range cases {
		got := ""
		if _, err := parser.Parse(c.src); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("Parse(%q) error %q, want %q", c.src, got, c.want)
		}
	}
	exprs := []struct{ src, want string }{
		{`(1`, `1:3: expected ")", found end of input`},
		{`1 +`, `1:4: unexpected end of input in expression`},
		{`1 2`, `1:3: trailing tokens after expression`},
		{`1 2 @`, `1:5: unexpected character '@'`},
		{`a + b /* open`, `1:14: unterminated block comment`},
	}
	for _, c := range exprs {
		got := ""
		if _, err := parser.ParseExpr(c.src); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("ParseExpr(%q) error %q, want %q", c.src, got, c.want)
		}
	}
}

// TestLiteralTyping checks suffix-driven literal types survive the trip.
func TestLiteralTyping(t *testing.T) {
	e, err := parser.ParseExpr("4294967295u")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*ast.IntLit)
	if !ok || lit.Val != 0xffffffff {
		t.Fatalf("got %#v", e)
	}
	if lit.Type().String() != "uint" {
		t.Errorf("4294967295u typed as %s, want uint", lit.Type())
	}
	e, err = parser.ParseExpr("5000000000")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*ast.IntLit).Type().String() != "long" {
		t.Errorf("5000000000 typed as %s, want long", e.(*ast.IntLit).Type())
	}
}

// TestPrecedence pins the tree shape of binary expressions. The printer
// parenthesizes every binary node, so the printed form of a parse is its
// shape. For every pair of adjacent precedence levels the tighter
// operator binds first on either side of the looser one, and operators
// of one level group left to right (a - b - c, a << b >> c, a / b % c).
func TestPrecedence(t *testing.T) {
	check := func(src, want string) {
		t.Helper()
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := ast.PrintExpr(e); got != want {
			t.Errorf("%s parsed as %s, want %s", src, got, want)
		}
	}
	levels := [][]string{ // loosest first
		{"||"}, {"&&"}, {"|"}, {"^"}, {"&"},
		{"==", "!="}, {"<", ">", "<=", ">="}, {"<<", ">>"}, {"+", "-"}, {"*", "/", "%"},
	}
	for i, ops := range levels {
		for _, x := range ops {
			for _, y := range ops {
				check("a "+x+" b "+y+" c", "((a "+x+" b) "+y+" c)")
			}
			if i+1 == len(levels) {
				continue
			}
			for _, y := range levels[i+1] {
				check("a "+x+" b "+y+" c", "(a "+x+" (b "+y+" c))")
				check("a "+y+" b "+x+" c", "((a "+y+" b) "+x+" c)")
			}
		}
	}
	check("a || b && c | d ^ e & f == g < h << i + j * k",
		"(a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k))))))))))")
	check("a * b + c << d < e == f & g ^ h | i && j || k",
		"((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j) || k)")
	check("-a * b", "((-a) * b)")
	e, err := parser.ParseExpr("a = b , c")
	if err != nil {
		t.Fatal(err)
	}
	if cm, ok := e.(*ast.Binary); !ok || cm.Op != ast.Comma {
		t.Error("comma must bind loosest")
	}
}
