// Package jsonscan is a reflection-free JSON scanner over an in-memory
// body, for hand-written decoders that must accept exactly what
// encoding/json accepts and produce exactly the values it produces.
//
// A decoder walks the body with Decoder's methods, one per Go type
// (Float, Int, Bool, Str, FloatSlice, Object) plus the generic Slice and
// Array, and its own callbacks for each object schema. The semantics are
// encoding/json's, quirks included: keys match exactly or case-folded,
// escaped keys are unescaped first, null leaves a number, bool, string,
// object or fixed array alone and sets a slice to nil, [] is a non-nil
// empty slice, a fixed array drops extra elements and zeroes missing
// ones, a repeated key decodes again into the value the earlier one
// left, and nesting deeper than encoding/json's 10000 levels is
// rejected. Every float goes through strconv.ParseFloat, so values are
// bit-identical.
//
// A zero-configuration Decoder matches json.Unmarshal: an unknown key's
// value is validated and skipped. DisallowUnknownFields makes it match a
// json.Decoder with DisallowUnknownFields instead.
//
// Errors carry no package prefix; the caller wraps them.
package jsonscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: that many open arrays and
// objects are accepted, one more is an error.
const maxDepth = 10000

// Decoder walks one JSON body. off is the next unread byte, depth the
// number of open arrays and objects; floats is scratch reused across
// float arrays.
type Decoder struct {
	data   []byte
	off    int
	depth  int
	strict bool
	floats []float64
}

// NewDecoder returns a Decoder at the start of data.
func NewDecoder(data []byte) Decoder {
	return Decoder{data: data}
}

// DisallowUnknownFields makes an object key that names no field an
// error, as json.Decoder.DisallowUnknownFields does.
func (d *Decoder) DisallowUnknownFields() { d.strict = true }

// Offset is the offset of the next unread byte.
func (d *Decoder) Offset() int { return d.off }

// Advance moves past n bytes that the caller consumed from
// data[Offset():] itself.
func (d *Decoder) Advance(n int) { d.off += n }

func (d *Decoder) errorf(format string, a ...any) error {
	return fmt.Errorf(format+" at offset %d", append(a, d.off)...)
}

// unexpected reports the byte at off: io.ErrUnexpectedEOF past the end,
// the bad character otherwise.
func (d *Decoder) unexpected(context string) error {
	if d.off >= len(d.data) {
		return io.ErrUnexpectedEOF
	}
	return d.errorf("invalid character %q %s", d.data[d.off], context)
}

func (d *Decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *Decoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// Top decodes the body's one value with fn and rejects anything but
// whitespace after it. An empty body is io.EOF, as from json.Decoder.
func (d *Decoder) Top(fn func() error) error {
	d.ws()
	if d.off == len(d.data) {
		return io.EOF
	}
	if err := fn(); err != nil {
		return err
	}
	d.ws()
	if d.off != len(d.data) {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// literal consumes the literal lit (null, true or false).
func (d *Decoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return d.unexpected("in literal " + lit)
	}
	d.off += len(lit)
	return nil
}

// enter consumes the '{' or '[' at off, counting it against maxDepth;
// leave consumes the matching '}' or ']'.
func (d *Decoder) enter() error {
	if d.depth == maxDepth {
		return d.errorf("exceeded max depth")
	}
	d.depth++
	d.off++
	d.ws()
	return nil
}

func (d *Decoder) leave() {
	d.depth--
	d.off++
}

// Object decodes an object of the given fields, calling set with d at
// the value of each known field by index. null leaves the target alone.
// An unknown key is an error under DisallowUnknownFields and its value
// is skipped otherwise.
func (d *Decoder) Object(fields []string, set func(field int) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("object")
	}
	return d.object(fields, set)
}

// object walks the members of the object at off. With nil fields every
// key is skipped unresolved.
func (d *Decoder) object(fields []string, set func(field int) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.leave()
		return nil
	}
	hint := 0
	for {
		if d.peek() != '"' {
			return d.unexpected("looking for beginning of object key string")
		}
		f, err := d.field(fields, hint)
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.unexpected("after object key")
		}
		d.off++
		d.ws()
		if f < 0 {
			err = d.skip()
		} else {
			err = set(f)
			hint = f + 1
		}
		if err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
		case '}':
			d.leave()
			return nil
		default:
			return d.unexpected("after object key:value pair")
		}
	}
}

// field reads an object key and resolves it to an index into fields:
// a case-folded match after unescaping, as encoding/json matches (the
// names differ under folding, so an exact match is the only fold
// match). fields[hint], the field an encoder writes next, is tried
// first. An unknown key is -1, or an error under DisallowUnknownFields.
func (d *Decoder) field(fields []string, hint int) (int, error) {
	start := d.off
	key, escaped, err := d.scanString()
	if err != nil || fields == nil {
		return -1, err
	}
	if hint < len(fields) && string(key) == fields[hint] {
		return hint, nil
	}
	if escaped {
		var s string
		if err := json.Unmarshal(d.data[start:d.off], &s); err != nil {
			return 0, err
		}
		key = []byte(s)
	}
	for i, name := range fields {
		if strings.EqualFold(string(key), name) {
			return i, nil
		}
	}
	if d.strict {
		return 0, fmt.Errorf("json: unknown field %q", key)
	}
	return -1, nil
}

// scanString consumes a string at off, validating its escapes and
// rejecting raw control characters. It returns the bytes between the
// quotes and whether any escape occurred.
func (d *Decoder) scanString() (raw []byte, escaped bool, err error) {
	b := d.data
	i := d.off + 1
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			raw = b[d.off+1 : i]
			d.off = i + 1
			return raw, escaped, nil
		case c == '\\':
			escaped = true
			i++
			switch {
			case i < len(b) && strings.IndexByte(`"\/bfnrt`, b[i]) >= 0:
				i++
			case i < len(b) && b[i] == 'u':
				for j := i + 1; j < i+5; j++ {
					if j == len(b) || !isHex(b[j]) {
						d.off = j
						return nil, false, d.unexpected("in \\u hexadecimal character escape")
					}
				}
				i += 5
			default:
				d.off = i
				return nil, false, d.unexpected("in string escape code")
			}
		case c < 0x20:
			d.off = i
			return nil, false, d.unexpected("in string literal")
		default:
			i++
		}
	}
	d.off = len(b)
	return nil, false, d.unexpected("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// mismatch reports a value that cannot decode into want: the wrong
// JSON type, or no value at all.
func (d *Decoder) mismatch(want string) error {
	return d.unexpected("looking for beginning of " + want + " value")
}

// skip consumes one value of any type, validating it as encoding/json
// validates a value it discards. Keys inside it are never unknown.
func (d *Decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(nil, nil)
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == 'n':
		return d.literal("null")
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.unexpected("looking for beginning of value")
}

// number consumes a number literal, enforcing JSON's grammar: no
// leading zeros, '+' or bare '.', and digits after '.' and the exponent.
func (d *Decoder) number() ([]byte, error) {
	b := d.data
	start, i := d.off, d.off
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		d.off = i
		return nil, d.unexpected("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			d.off = i
			return nil, d.unexpected("after decimal point in numeric literal")
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			d.off = i
			return nil, d.unexpected("in exponent of numeric literal")
		}
		i = digits(b, i)
	}
	d.off = i
	return b[start:i], nil
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// Float decodes a number into *f (null leaves it alone). Overflow such
// as 1e400 is rejected, as ParseFloat reports it.
func (d *Decoder) Float(f *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch("float64")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	x, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.errorf("cannot unmarshal number %s into float64", lit)
	}
	*f = x
	return nil
}

// Int decodes an integer literal into *n (null leaves it alone): a
// fraction, an exponent or overflow is rejected, as ParseInt reports it.
func (d *Decoder) Int(n *int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch("int")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	x, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return d.errorf("cannot unmarshal number %s into int", lit)
	}
	*n = int(x)
	return nil
}

// Bool decodes true or false into *b (null leaves it alone).
func (d *Decoder) Bool(b *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*b = true
		return d.literal("true")
	case 'f':
		*b = false
		return d.literal("false")
	}
	return d.mismatch("bool")
}

// Str decodes a string into *s (null leaves it alone). Escapes and
// invalid UTF-8 go through encoding/json, which unescapes them and
// replaces invalid bytes with U+FFFD.
func (d *Decoder) Str(s *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.mismatch("string")
	}
	start := d.off
	raw, escaped, err := d.scanString()
	if err != nil {
		return err
	}
	if !escaped && utf8.Valid(raw) {
		*s = string(raw)
		return nil
	}
	return json.Unmarshal(d.data[start:d.off], s)
}

// array walks the elements of the array at off, calling elem with d at
// each.
func (d *Decoder) array(elem func() error) error {
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.leave()
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		done, err := d.next()
		if done || err != nil {
			return err
		}
	}
}

// next consumes the separator after an array element: done at ']'.
func (d *Decoder) next() (done bool, err error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.off++
		d.ws()
		return false, nil
	case ']':
		d.leave()
		return true, nil
	}
	return false, d.unexpected("after array element")
}

// Slice decodes an array into *s: null sets nil, [] is non-nil and
// empty, and elements decode into what *s already holds (a repeated
// key), growing like append.
func Slice[T any](d *Decoder, s *[]T, elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		*s = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	v, i := *s, 0
	err := d.array(func() error {
		if i == len(v) {
			if i == cap(v) {
				var zero T
				v = append(v, zero)
			} else {
				v = v[:i+1]
			}
		}
		i++
		return elem(&v[i-1])
	})
	if err != nil {
		return err
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

// Array decodes an array into a, the elements of a Go array: null
// leaves them alone, elements past len(a) are validated and dropped, and
// elements the JSON array lacks are zeroed.
func Array[T any](d *Decoder, a []T, elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	i := 0
	err := d.array(func() error {
		if i++; i > len(a) {
			return d.skip()
		}
		return elem(&a[i-1])
	})
	if err != nil {
		return err
	}
	clear(a[min(i, len(a)):])
	return nil
}

// FloatSlice decodes a number array. A fresh (nil) target is decoded
// into the reused scratch and copied once into an exactly sized slice;
// any other target takes Slice's in-place path. A null element is 0 in
// a fresh slice, as encoding/json's zeroed growth leaves it.
func (d *Decoder) FloatSlice(s *[]float64) error {
	if *s != nil || d.peek() != '[' {
		return Slice(d, s, d.Float)
	}
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.leave()
		*s = []float64{}
		return nil
	}
	buf := d.floats[:0]
	for {
		buf = append(buf, 0)
		if err := d.Float(&buf[len(buf)-1]); err != nil {
			return err
		}
		if done, err := d.next(); done || err != nil {
			if err != nil {
				return err
			}
			break
		}
	}
	d.floats = buf
	*s = append([]float64(nil), buf...)
	return nil
}
