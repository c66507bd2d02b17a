package exec

import (
	"fmt"

	"clfuzz/internal/cltypes"
)

// Cell is a storage location. Scalars hold their value in Val; vectors in
// Vec; structs and arrays hold child cells; unions hold raw bytes so that
// the layout-sensitive union defect models behave realistically. Pointer
// cells hold a reference to another cell.
//
// Both engines read and write cell fields and flat buffer words plainly,
// shared memory included. Racy kernels are legal inputs to the fuzzer;
// they stay legal Go because no two threads of a launch ever run at once:
// the lockstep baton (lockstep.go) orders every handover between thread
// goroutines, and the sequential path has only one goroutine.
type Cell struct {
	Typ    cltypes.Type
	Val    uint64   // scalar value (bit pattern truncated to width)
	Vec    []uint64 // vector components
	Kids   []*Cell  // struct fields / array elements
	Bytes  []byte   // union backing store
	Ptr    Ptr      // pointer value (zero value = null pointer)
	Space  cltypes.AddrSpace
	Shared bool // lives in global or local memory (visible across threads)
}

// NewCell allocates a zero-initialized cell tree for type t in the given
// address space.
func NewCell(t cltypes.Type, space cltypes.AddrSpace) *Cell {
	shared := space == cltypes.Global || space == cltypes.Local
	return newCell(t, space, shared)
}

func newCell(t cltypes.Type, space cltypes.AddrSpace, shared bool) *Cell {
	c := &Cell{Typ: t, Space: space, Shared: shared}
	switch tt := t.(type) {
	case *cltypes.Scalar:
	case *cltypes.Vector:
		c.Vec = make([]uint64, tt.Len)
	case *cltypes.StructT:
		if tt.IsUnion {
			c.Bytes = make([]byte, tt.Size())
		} else {
			c.Kids = make([]*Cell, len(tt.Fields))
			for i, f := range tt.Fields {
				c.Kids[i] = newCell(f.Type, space, shared)
			}
		}
	case *cltypes.Array:
		c.Kids = make([]*Cell, tt.Len)
		for i := range c.Kids {
			c.Kids[i] = newCell(tt.Elem, space, shared)
		}
	case *cltypes.Pointer:
	default:
		panic(fmt.Sprintf("exec: cannot allocate cell of type %T", t))
	}
	return c
}

// Buffer is a host-allocated global memory array passed as a kernel
// argument. Scalar-element buffers — the overwhelmingly common case, and
// the layout every generated kernel uses for its result, dead, and comm
// arrays — store their elements in the flat Words array: one uint64 bit
// pattern per element, no per-element heap cell. Aggregate- and
// vector-element buffers keep the per-element cell tree in Cells.
type Buffer struct {
	Elem cltypes.Type
	// Words is the flat backing store of a scalar-element buffer. Kernel
	// pointers into the buffer index this array directly (Ptr.Words).
	Words []uint64
	// wordT is Elem as a scalar when the flat store is in use; it doubles
	// as the flat-vs-cells discriminator (a zero-length Words slice is
	// still a flat buffer).
	wordT *cltypes.Scalar
	// Cells holds the elements of aggregate- and vector-element buffers.
	Cells []*Cell
	Space cltypes.AddrSpace
}

// NewBuffer allocates a global buffer of n elements of type elem.
// Scalar-element buffers get a single flat allocation; other element types
// get one cell tree per element.
func NewBuffer(elem cltypes.Type, n int) *Buffer {
	b := &Buffer{Elem: elem, Space: cltypes.Global}
	if st, ok := elem.(*cltypes.Scalar); ok {
		b.Words = make([]uint64, n)
		b.wordT = st
		return b
	}
	b.Cells = make([]*Cell, n)
	for i := range b.Cells {
		b.Cells[i] = NewCell(elem, cltypes.Global)
	}
	return b
}

// Fill sets every element of a scalar buffer to v.
func (b *Buffer) Fill(v uint64) {
	for i := range b.Words {
		b.Words[i] = v
	}
	for _, c := range b.Cells {
		c.Val = v
	}
}

// SetScalar sets element i of a scalar buffer.
func (b *Buffer) SetScalar(i int, v uint64) {
	if b.wordT != nil {
		b.Words[i] = v
		return
	}
	b.Cells[i].Val = v
}

// Scalar returns element i of a scalar buffer.
func (b *Buffer) Scalar(i int) uint64 {
	if b.wordT != nil {
		return b.Words[i]
	}
	return b.Cells[i].Val
}

// Scalars returns the contents of a scalar buffer.
func (b *Buffer) Scalars() []uint64 {
	if b.wordT != nil {
		out := make([]uint64, len(b.Words))
		copy(out, b.Words)
		return out
	}
	out := make([]uint64, len(b.Cells))
	for i, c := range b.Cells {
		out[i] = c.Val
	}
	return out
}

// Len returns the element count.
func (b *Buffer) Len() int {
	if b.wordT != nil {
		return len(b.Words)
	}
	return len(b.Cells)
}

// ---- byte encoding, used for union storage ----

// encodeScalar stores a scalar of type t into buf (little-endian).
func encodeScalar(buf []byte, v uint64, t *cltypes.Scalar) {
	n := t.Size()
	for i := 0; i < n; i++ {
		buf[i] = byte(v >> (8 * uint(i)))
	}
}

// decodeScalar reads a scalar of type t from buf.
func decodeScalar(buf []byte, t *cltypes.Scalar) uint64 {
	n := t.Size()
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(buf[i]) << (8 * uint(i))
	}
	return cltypes.Trunc(v, t)
}

// structLayout returns the byte offset of each field of a (non-union)
// struct under natural alignment.
func structLayout(st *cltypes.StructT) []int {
	offs := make([]int, len(st.Fields))
	off := 0
	for i, f := range st.Fields {
		a := alignOf(f.Type)
		off = (off + a - 1) / a * a
		offs[i] = off
		off += f.Type.Size()
	}
	return offs
}

func alignOf(t cltypes.Type) int {
	switch tt := t.(type) {
	case *cltypes.Scalar:
		return tt.Size()
	case *cltypes.Vector:
		return tt.Size()
	case *cltypes.StructT:
		a := 1
		for _, f := range tt.Fields {
			if fa := alignOf(f.Type); fa > a {
				a = fa
			}
		}
		return a
	case *cltypes.Array:
		return alignOf(tt.Elem)
	}
	return 8
}

// encodeValue writes a Value of type t into buf. Pointers are not
// supported inside unions (rejected by the generator and benchmarks).
func encodeValue(buf []byte, v *Value, t cltypes.Type) error {
	switch tt := t.(type) {
	case *cltypes.Scalar:
		encodeScalar(buf, v.Scalar, tt)
		return nil
	case *cltypes.Vector:
		es := tt.Elem.Size()
		for i := 0; i < tt.Len; i++ {
			encodeScalar(buf[i*es:], v.Vec[i], tt.Elem)
		}
		return nil
	case *cltypes.StructT:
		if tt.IsUnion {
			copy(buf[:tt.Size()], v.Agg.Bytes)
			return nil
		}
		offs := structLayout(tt)
		for i, f := range tt.Fields {
			var fv Value
			if err := loadCell(v.Agg.Kids[i], &fv); err != nil {
				return err
			}
			if err := encodeValue(buf[offs[i]:], &fv, f.Type); err != nil {
				return err
			}
		}
		return nil
	case *cltypes.Array:
		es := tt.Elem.Size()
		for i := 0; i < tt.Len; i++ {
			var ev Value
			if err := loadCell(v.Agg.Kids[i], &ev); err != nil {
				return err
			}
			if err := encodeValue(buf[i*es:], &ev, tt.Elem); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("exec: cannot encode type %s into union storage", t)
}

// decodeInto reads a value of the cell's type from buf into the cell.
func decodeInto(c *Cell, buf []byte) error {
	switch tt := c.Typ.(type) {
	case *cltypes.Scalar:
		c.Val = decodeScalar(buf, tt)
		return nil
	case *cltypes.Vector:
		es := tt.Elem.Size()
		for i := 0; i < tt.Len; i++ {
			c.Vec[i] = decodeScalar(buf[i*es:], tt.Elem)
		}
		return nil
	case *cltypes.StructT:
		if tt.IsUnion {
			copy(c.Bytes, buf[:tt.Size()])
			return nil
		}
		offs := structLayout(tt)
		for i := range tt.Fields {
			if err := decodeInto(c.Kids[i], buf[offs[i]:]); err != nil {
				return err
			}
		}
		return nil
	case *cltypes.Array:
		es := tt.Elem.Size()
		for i := 0; i < tt.Len; i++ {
			if err := decodeInto(c.Kids[i], buf[i*es:]); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("exec: cannot decode type %s from union storage", c.Typ)
}
