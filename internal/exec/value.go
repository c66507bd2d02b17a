package exec

import (
	"fmt"

	"clfuzz/internal/cltypes"
)

// Value is the result of evaluating an expression.
type Value struct {
	T      cltypes.Type
	Scalar uint64   // scalar bit pattern
	Vec    []uint64 // vector components
	Ptr    Ptr      // pointer value
	// Agg is an aggregate rvalue (struct/union/array). It is usually a
	// borrowed read-only view of the loaded storage, not a detached copy:
	// every consumer (storeCell, union encoding, parameter binding) copies
	// out of it before any further evaluation can write to the underlying
	// cells, so the load-then-consume pattern — the checksum loop of every
	// generated kernel — pays no deep copy.
	Agg *Cell
}

// scalarValue wraps a scalar bit pattern.
func scalarValue(v uint64, t *cltypes.Scalar) Value {
	return Value{T: t, Scalar: cltypes.Trunc(v, t)}
}

// boolValue returns an int 0/1.
func boolValue(b bool) Value {
	if b {
		return Value{T: cltypes.TInt, Scalar: 1}
	}
	return Value{T: cltypes.TInt, Scalar: 0}
}

// isTrue reports whether the value is nonzero (scalar or pointer).
func (v *Value) isTrue() bool {
	if _, ok := v.T.(*cltypes.Pointer); ok {
		return !v.Ptr.IsNull()
	}
	if s, ok := v.T.(*cltypes.Scalar); ok {
		return cltypes.Trunc(v.Scalar, s) != 0
	}
	return false
}

// convertScalar converts v to scalar type to.
func convertScalar(v *Value, to *cltypes.Scalar) Value {
	from, ok := v.T.(*cltypes.Scalar)
	if !ok {
		// Pointer to bool contexts are handled by isTrue; anything else
		// reaching here is an interpreter invariant violation.
		panic(fmt.Sprintf("exec: convertScalar on %s", v.T))
	}
	return Value{T: to, Scalar: cltypes.Convert(v.Scalar, from, to)}
}

// loadCell reads the full value stored in a cell into *out. Results are
// written with full struct assignments, so out may be reused as scratch
// across calls.
func loadCell(c *Cell, out *Value) error {
	switch t := c.Typ.(type) {
	case *cltypes.Scalar:
		*out = Value{T: t, Scalar: c.Val}
		return nil
	case *cltypes.Vector:
		vec := make([]uint64, t.Len)
		for i := range vec {
			vec[i] = c.Vec[i]
		}
		*out = Value{T: t, Vec: vec}
		return nil
	case *cltypes.Pointer:
		*out = Value{T: t, Ptr: c.Ptr}
		return nil
	case *cltypes.StructT, *cltypes.Array:
		// Aggregate load: borrow a read-only view. No other thread runs
		// before the value is consumed, and the evaluator consumes
		// aggregate values (store, encode, bind) before evaluating
		// anything else, so same-thread mutation cannot intervene either.
		*out = Value{T: c.Typ, Agg: c}
		return nil
	}
	return fmt.Errorf("exec: cannot load cell of type %s", c.Typ)
}

// storeCell writes a value into a cell, converting scalars as needed.
func storeCell(c *Cell, v *Value) error {
	switch t := c.Typ.(type) {
	case *cltypes.Scalar:
		if vs, ok := v.T.(*cltypes.Scalar); ok {
			c.Val = cltypes.Convert(v.Scalar, vs, t)
			return nil
		}
		return fmt.Errorf("exec: cannot store %s into %s", v.T, t)
	case *cltypes.Vector:
		if !v.T.Equal(t) {
			return fmt.Errorf("exec: cannot store %s into %s", v.T, t)
		}
		for i := 0; i < t.Len; i++ {
			c.Vec[i] = v.Vec[i]
		}
		return nil
	case *cltypes.Pointer:
		if _, ok := v.T.(*cltypes.Pointer); ok {
			c.Ptr = v.Ptr
			return nil
		}
		if vs, ok := v.T.(*cltypes.Scalar); ok && cltypes.Trunc(v.Scalar, vs) == 0 {
			c.Ptr = Ptr{} // null pointer constant
			return nil
		}
		return fmt.Errorf("exec: cannot store %s into %s", v.T, t)
	case *cltypes.StructT, *cltypes.Array:
		if v.Agg == nil || !v.T.Equal(c.Typ) {
			return fmt.Errorf("exec: cannot store %s into %s", v.T, c.Typ)
		}
		return copyCell(c, v.Agg)
	}
	return fmt.Errorf("exec: cannot store into cell of type %s", c.Typ)
}

// copyCell deep-copies src into dst (same type).
func copyCell(dst, src *Cell) error {
	switch t := dst.Typ.(type) {
	case *cltypes.Scalar:
		dst.Val = src.Val
	case *cltypes.Vector:
		for i := 0; i < t.Len; i++ {
			dst.Vec[i] = src.Vec[i]
		}
	case *cltypes.Pointer:
		dst.Ptr = src.Ptr
	case *cltypes.StructT:
		if t.IsUnion {
			copy(dst.Bytes, src.Bytes)
			return nil
		}
		for i := range dst.Kids {
			if err := copyCell(dst.Kids[i], src.Kids[i]); err != nil {
				return err
			}
		}
	case *cltypes.Array:
		for i := range dst.Kids {
			if err := copyCell(dst.Kids[i], src.Kids[i]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("exec: cannot copy cell of type %s", dst.Typ)
	}
	return nil
}

// lval is an assignable location: a direct cell, an element of a flat
// scalar buffer, a union field view, or a single vector component.
type lval struct {
	c      *Cell        // direct cell, or the vector cell / union cell
	flat   *Buffer      // flat scalar buffer (c is nil); wIdx is the slot
	wIdx   int          // element index within flat.Words
	uField cltypes.Type // union field view type (c is the union cell)
	vecIdx int          // >=0: component of the vector in c
}

func directLV(c *Cell) lval { return lval{c: c, vecIdx: -1} }

// wordLV views element idx of a flat scalar buffer's backing store.
func wordLV(b *Buffer, idx int) lval {
	return lval{flat: b, wIdx: idx, vecIdx: -1}
}

// wordAddr returns the address of the flat slot, the race checker's
// location key; nil for non-word lvalues.
func (l lval) wordAddr() *uint64 {
	if l.flat == nil {
		return nil
	}
	return &l.flat.Words[l.wIdx]
}

func (l lval) load(out *Value) error {
	if l.flat != nil {
		*out = Value{T: l.flat.wordT, Scalar: l.flat.Words[l.wIdx]}
		return nil
	}
	if l.uField != nil {
		cp := newCell(l.uField, cltypes.Private, false)
		if err := decodeInto(cp, l.c.Bytes); err != nil {
			return err
		}
		return loadCell(cp, out)
	}
	if l.vecIdx >= 0 {
		vt := l.c.Typ.(*cltypes.Vector)
		*out = Value{T: vt.Elem, Scalar: l.c.Vec[l.vecIdx]}
		return nil
	}
	return loadCell(l.c, out)
}

func (l lval) store(v *Value) error {
	if l.flat != nil {
		if vs, ok := v.T.(*cltypes.Scalar); ok {
			l.flat.Words[l.wIdx] = cltypes.Convert(v.Scalar, vs, l.flat.wordT)
			return nil
		}
		return fmt.Errorf("exec: cannot store %s into %s", v.T, l.flat.wordT)
	}
	if l.uField != nil {
		// Write-through the union view: encode the field value at offset 0
		// (all union members share offset 0).
		if _, ok := l.uField.(*cltypes.Scalar); ok {
			if vs, sok := v.T.(*cltypes.Scalar); sok {
				cv := convertScalar(&Value{T: vs, Scalar: v.Scalar}, l.uField.(*cltypes.Scalar))
				v = &cv
			}
		}
		return encodeValue(l.c.Bytes, v, l.uField)
	}
	if l.vecIdx >= 0 {
		vt := l.c.Typ.(*cltypes.Vector)
		if vs, ok := v.T.(*cltypes.Scalar); ok {
			l.c.Vec[l.vecIdx] = cltypes.Convert(v.Scalar, vs, vt.Elem)
			return nil
		}
		return fmt.Errorf("exec: cannot store %s into vector component", v.T)
	}
	return storeCell(l.c, v)
}

// typ returns the type of the location.
func (l lval) typ() cltypes.Type {
	if l.flat != nil {
		return l.flat.wordT
	}
	if l.uField != nil {
		return l.uField
	}
	if l.vecIdx >= 0 {
		return l.c.Typ.(*cltypes.Vector).Elem
	}
	return l.c.Typ
}
