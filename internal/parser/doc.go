// Package parser parses OpenCL C subset source into the AST. It
// implements a conventional recursive-descent parser with full C operator
// precedence, struct/union/typedef declarations, OpenCL address space
// qualifiers, vector literals and kernel qualifiers. It pulls tokens
// from the lexer on demand, so a parse makes one pass over the source
// and builds no token slice.
//
// Parse is the single entry point. Campaigns do not call it per
// configuration: the device layer memoizes parsed front ends per distinct
// source (device.FrontCache), so each kernel is parsed once no matter how
// many configurations compile it.
package parser
