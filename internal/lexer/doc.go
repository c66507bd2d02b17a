// Package lexer tokenizes OpenCL C subset source. Each simulated compiler
// configuration lexes and parses kernel source text, mirroring the online
// compilation model of OpenCL in which drivers compile source at runtime
// (paper §1); the front-end cache in internal/device keeps that work to
// one pass per distinct source. Lexer.Next scans one token at a time and
// is what the parser pulls from; Lex collects a whole token stream.
package lexer
