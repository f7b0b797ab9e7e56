package cudalite

import "fmt"

// VKind tags a runtime Value.
type VKind int

// Value kinds. Integers, unsigned integers and booleans share KInt storage
// (as in C, where they interconvert freely). Strings exist only in host
// code (kernel names in flep_intercept calls).
const (
	KInt VKind = iota
	KFloat
	KPtr
	KStr
)

// Buffer is a linear memory region: a device/global allocation, a per-CTA
// shared array, or a thread-local array. Exactly one of F or I is used,
// chosen by Kind.
//
// A Buffer is not safe for concurrent use: the interpreter runs one
// simulated thread at a time, and a caller sharing a Buffer across
// goroutines must order its accesses itself.
type Buffer struct {
	Name string
	Kind BaseType // TFloat or TInt/TUInt/TBool
	F    []float64
	I    []int64

	// Volatile marks host-visible memory (pinned flags): loads through it
	// invoke Machine.OnVolatileRead, letting a harness mutate the flag at
	// realistic poll points.
	Volatile bool
}

// NewFloatBuffer allocates a float buffer of n elements.
func NewFloatBuffer(name string, n int) *Buffer {
	return &Buffer{Name: name, Kind: TFloat, F: make([]float64, n)}
}

// NewIntBuffer allocates an int buffer of n elements.
func NewIntBuffer(name string, n int) *Buffer {
	return &Buffer{Name: name, Kind: TInt, I: make([]int64, n)}
}

// Len returns the element count.
func (b *Buffer) Len() int {
	if b.Kind == TFloat {
		return len(b.F)
	}
	return len(b.I)
}

// Load reads element i as a Value.
func (b *Buffer) Load(i int) (Value, error) {
	if i < 0 || i >= b.Len() {
		return Value{}, fmt.Errorf("cudalite: out-of-bounds read %s[%d] (len %d)", b.Name, i, b.Len())
	}
	if b.Kind == TFloat {
		return FloatValue(b.F[i]), nil
	}
	return IntValue(b.I[i]), nil
}

// Store writes v (converted to the buffer's element type) to element i.
func (b *Buffer) Store(i int, v Value) error {
	if i < 0 || i >= b.Len() {
		return fmt.Errorf("cudalite: out-of-bounds write %s[%d] (len %d)", b.Name, i, b.Len())
	}
	if b.Kind == TFloat {
		b.F[i] = v.Float()
	} else {
		b.I[i] = v.Int()
	}
	return nil
}

// Pointer is a typed offset into a Buffer. The nil pointer has Buf == nil.
type Pointer struct {
	Buf *Buffer
	Off int
}

// IsNil reports whether the pointer is NULL.
func (p Pointer) IsNil() bool { return p.Buf == nil }

// Value is a MiniCUDA runtime value.
type Value struct {
	Kind VKind
	I    int64
	F    float64
	P    Pointer
	S    string
}

// StrValue makes a string value (host-code only).
func StrValue(s string) Value { return Value{Kind: KStr, S: s} }

// Str returns the string payload ("" for non-strings).
func (v Value) Str() string { return v.S }

// IntValue makes an integer value.
func IntValue(v int64) Value { return Value{Kind: KInt, I: v} }

// FloatValue makes a floating-point value.
func FloatValue(v float64) Value { return Value{Kind: KFloat, F: v} }

// BoolValue makes a boolean (stored as 0/1 integer).
func BoolValue(b bool) Value {
	if b {
		return IntValue(1)
	}
	return IntValue(0)
}

// PtrValue makes a pointer value.
func PtrValue(b *Buffer, off int) Value {
	return Value{Kind: KPtr, P: Pointer{Buf: b, Off: off}}
}

// NullValue is the NULL pointer.
func NullValue() Value { return Value{Kind: KPtr} }

// Int converts the value to an integer, truncating floats (C semantics).
func (v Value) Int() int64 {
	switch v.Kind {
	case KFloat:
		return int64(v.F)
	case KPtr:
		if v.P.IsNil() {
			return 0
		}
		return 1
	default:
		return v.I
	}
}

// Float converts the value to floating point.
func (v Value) Float() float64 {
	if v.Kind == KFloat {
		return v.F
	}
	return float64(v.I)
}

// Bool converts the value to a C truth value.
func (v Value) Bool() bool {
	switch v.Kind {
	case KFloat:
		return v.F != 0
	case KPtr:
		return !v.P.IsNil()
	default:
		return v.I != 0
	}
}

// String formats the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KFloat:
		return fmt.Sprintf("%g", v.F)
	case KPtr:
		if v.P.IsNil() {
			return "NULL"
		}
		return fmt.Sprintf("&%s[%d]", v.P.Buf.Name, v.P.Off)
	case KStr:
		return fmt.Sprintf("%q", v.S)
	default:
		return fmt.Sprintf("%d", v.I)
	}
}

// PackDim3 encodes a Dim3 into an integer Value (the interpreter has no
// aggregate type; the dim3(...) builtin and host hooks use this encoding).
func PackDim3(d Dim3) Value {
	d = d.Norm()
	return IntValue(int64(d.X) | int64(d.Y)<<20 | int64(d.Z)<<40)
}

// UnpackDim3 decodes PackDim3's encoding. Plain integers (y and z bits
// clear) decode as 1-D dims, so "k<<<n, 256>>>" works without dim3().
func UnpackDim3(v Value) Dim3 {
	i := v.Int()
	d := Dim3{X: int(i & 0xFFFFF), Y: int((i >> 20) & 0xFFFFF), Z: int(i >> 40)}
	return d.Norm()
}

// Dim3 is a CUDA dim3 with 1-based defaults for unused dimensions.
type Dim3 struct{ X, Y, Z int }

// D1 builds a one-dimensional Dim3.
func D1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// D2 builds a two-dimensional Dim3.
func D2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Count returns the total number of elements (threads or blocks).
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// Norm returns the dim with zero components replaced by 1.
func (d Dim3) Norm() Dim3 {
	if d.X == 0 {
		d.X = 1
	}
	if d.Y == 0 {
		d.Y = 1
	}
	if d.Z == 0 {
		d.Z = 1
	}
	return d
}
