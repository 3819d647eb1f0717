package api

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

// DecodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and trailing garbage. The server uses it for every
// request body so client typos (a misspelled field would otherwise be
// silently zero) and concatenated bodies fail loudly with a 400.
//
// *FramesRequest and *JournalAppend — the frames DTOs, megabytes of
// samples per chunk — go through DecodeFrames and DecodeJournalAppend;
// every other DTO goes through encoding/json. Both paths accept the same
// bodies and produce the same values.
func DecodeStrict(r io.Reader, v any) error {
	switch v := v.(type) {
	case *FramesRequest:
		body, err := ReadBody(r, lenHint(r))
		if err != nil {
			return err
		}
		return DecodeFrames(body, v)
	case *JournalAppend:
		body, err := ReadBody(r, lenHint(r))
		if err != nil {
			return err
		}
		_, err = DecodeJournalAppend(body, v)
		return err
	}
	return decodeJSON(r, v)
}

// decodeJSON is the encoding/json strict path.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("api: decode: %w", err)
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return fmt.Errorf("api: decode: trailing data after JSON body")
	}
	return nil
}

// maxPresize caps how much of a declared body size ReadBody reserves up
// front: a request declaring a huge Content-Length but sending little
// cannot make the server reserve what it declared. Larger bodies still
// read in full, growing past the cap as bytes actually arrive. 8 MiB
// covers a 2 s four-microphone 16 kHz chunk (about 2.7 MB) three times.
const maxPresize = 8 << 20

// ReadBody reads r to EOF into one buffer. size is the declared length
// (an http.Request's ContentLength; 0 or negative when unknown) and
// presizes the buffer, capped at maxPresize. The buffer keeps one spare
// byte of capacity past a body of the declared size, so a journal can
// append its line terminator without copying the body. Errors carry the
// "api: decode:" prefix and wrap the reader's error, so an
// *http.MaxBytesError stays visible to errors.As.
func ReadBody(r io.Reader, size int64) ([]byte, error) {
	switch {
	case size <= 0:
		size = 512
	case size > maxPresize:
		size = maxPresize
	}
	buf := make([]byte, 0, size+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("api: decode: %w", err)
		}
	}
}

// lenHint is the unread length of an in-memory reader, 0 otherwise.
func lenHint(r io.Reader) int64 {
	if l, ok := r.(interface{ Len() int }); ok {
		return int64(l.Len())
	}
	return 0
}

// DecodeFrames strictly decodes one FramesRequest body. It is a
// hand-written, reflection-free decoder with the accept set and the
// decoded values of the encoding/json path (json.Decoder with
// DisallowUnknownFields plus the trailing-data check), pinned by
// FuzzDecodeFrames, including encoding/json's quirks: keys match
// exactly or case-folded, escaped keys are unescaped first, null leaves
// a number, bool or object alone and sets a slice to nil, [] is a
// non-nil empty slice, and a repeated key decodes again into the value
// the earlier one left. Every float goes through strconv.ParseFloat, so
// values are bit-identical.
func DecodeFrames(body []byte, v *FramesRequest) error {
	d := decoder{data: body}
	return d.top(func() error { return d.frames(v) })
}

// DecodeJournalAppend strictly decodes one JournalAppend body, like
// DecodeFrames (FuzzDecodeJournalAppend pins it to encoding/json); the
// small request object goes through encoding/json. When the body holds
// exactly one "chunk" key and its value is an object, chunk is that
// value's span of body: decoded into a zero FramesRequest it yields
// v.Chunk (v zero on entry), so a follower can journal the bytes it was
// sent. Otherwise chunk is nil.
func DecodeJournalAppend(body []byte, v *JournalAppend) (chunk []byte, err error) {
	d := decoder{data: body}
	err = d.top(func() error {
		var start, end, seen int
		err := d.object(journalAppendFields, func(f int) error {
			switch f {
			case 0:
				return d.str(&v.SchemaVersion)
			case 1:
				return d.int(&v.Seq)
			case 2:
				return d.sessionRequest(&v.Request)
			}
			seen++
			start = d.off
			err := d.frames(&v.Chunk)
			end = d.off
			return err
		})
		if err == nil && seen == 1 && body[start] == '{' {
			chunk = body[start:end]
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return chunk, nil
}

// JournalAppendBody encodes a JournalAppend whose chunk is an accepted
// frames body, splicing chunk in verbatim instead of re-encoding it.
// With chunk = json.Marshal(c) the result is byte-identical to
// json.Marshal(JournalAppend{Version, seq, req, c}).
func JournalAppendBody(seq int, req SessionRequest, chunk []byte) ([]byte, error) {
	head, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(head)+len(chunk)+64)
	buf = append(buf, `{"schema_version":"`+Version+`","seq":`...)
	buf = strconv.AppendInt(buf, int64(seq), 10)
	buf = append(buf, `,"request":`...)
	buf = append(buf, head...)
	buf = append(buf, `,"chunk":`...)
	buf = append(buf, chunk...)
	return append(buf, '}'), nil
}

// Field names in decode order; a decoder's callback switches on the
// index.
var (
	journalAppendFields = []string{"schema_version", "seq", "request", "chunk"}
	framesFields        = []string{"seq", "audio", "imu", "gps", "close"}
	audioFrameFields    = []string{"start_seconds", "rate_hz", "samples"}
	imuSampleFields     = []string{"time_seconds", "accel", "gyro", "att"}
	gpsSampleFields     = []string{"time_seconds", "pos", "vel"}
	vec3Fields          = []string{"x", "y", "z"}
	quatFields          = []string{"w", "x", "y", "z"}
)

// decoder walks one JSON body. off is the next unread byte; floats is
// scratch reused across float arrays.
type decoder struct {
	data   []byte
	off    int
	floats []float64
}

func (d *decoder) errorf(format string, a ...any) error {
	return fmt.Errorf("api: decode: "+format+" at offset %d", append(a, d.off)...)
}

// unexpected reports the byte at off: io.ErrUnexpectedEOF past the end,
// the bad character otherwise.
func (d *decoder) unexpected(context string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("api: decode: %w", io.ErrUnexpectedEOF)
	}
	return d.errorf("invalid character %q %s", d.data[d.off], context)
}

func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *decoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// top decodes the body's one value with fn and rejects anything but
// whitespace after it. An empty body is io.EOF, as from json.Decoder.
func (d *decoder) top(fn func() error) error {
	d.ws()
	if d.off == len(d.data) {
		return fmt.Errorf("api: decode: %w", io.EOF)
	}
	if err := fn(); err != nil {
		return err
	}
	d.ws()
	if d.off != len(d.data) {
		return fmt.Errorf("api: decode: trailing data after JSON body")
	}
	return nil
}

// literal consumes the literal lit (null, true or false).
func (d *decoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return d.unexpected("in literal " + lit)
	}
	d.off += len(lit)
	return nil
}

// object decodes an object of the given fields, calling set with d at
// the value of each field by index. null leaves the target alone.
func (d *decoder) object(fields []string, set func(field int) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("object")
	}
	d.off++
	d.ws()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("looking for beginning of object key string")
		}
		f, err := d.field(fields)
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.unexpected("after object key")
		}
		d.off++
		d.ws()
		if err := set(f); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
		case '}':
			d.off++
			return nil
		default:
			return d.unexpected("after object key:value pair")
		}
	}
}

// field reads an object key and resolves it to an index into fields:
// a case-folded match after unescaping, as encoding/json matches (the
// names differ under folding, so an exact match is the only fold
// match). An unknown key is an error.
func (d *decoder) field(fields []string) (int, error) {
	start := d.off
	key, escaped, err := d.scanString()
	if err != nil {
		return 0, err
	}
	if escaped {
		var s string
		if err := json.Unmarshal(d.data[start:d.off], &s); err != nil {
			return 0, fmt.Errorf("api: decode: %w", err)
		}
		key = []byte(s)
	}
	for i, name := range fields {
		if strings.EqualFold(string(key), name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("api: decode: json: unknown field %q", key)
}

// scanString consumes a string at off, validating its escapes and
// rejecting raw control characters. It returns the bytes between the
// quotes and whether any escape occurred.
func (d *decoder) scanString() (raw []byte, escaped bool, err error) {
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
func (d *decoder) mismatch(want string) error {
	return d.unexpected("looking for beginning of " + want + " value")
}

// number consumes a number literal, enforcing JSON's grammar: no
// leading zeros, '+' or bare '.', and digits after '.' and the exponent.
func (d *decoder) number() ([]byte, error) {
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

// float decodes a number into *f (null leaves it alone). Overflow such
// as 1e400 is rejected, as ParseFloat reports it.
func (d *decoder) float(f *float64) error {
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

// int decodes an integer literal into *n (null leaves it alone): a
// fraction, an exponent or overflow is rejected, as ParseInt reports it.
func (d *decoder) int(n *int) error {
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

// bool decodes true or false into *b (null leaves it alone).
func (d *decoder) bool(b *bool) error {
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

// str decodes a string into *s (null leaves it alone). Escapes and
// invalid UTF-8 go through encoding/json, which unescapes them and
// replaces invalid bytes with U+FFFD.
func (d *decoder) str(s *string) error {
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
	if err := json.Unmarshal(d.data[start:d.off], s); err != nil {
		return fmt.Errorf("api: decode: %w", err)
	}
	return nil
}

// sessionRequest decodes the value at off through encoding/json's
// strict path, on the bytes from off onwards; json.Decoder stops after
// the one value and reports where.
func (d *decoder) sessionRequest(v *SessionRequest) error {
	dec := json.NewDecoder(bytes.NewReader(d.data[d.off:]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("api: decode: request: %w", err)
	}
	d.off += int(dec.InputOffset())
	return nil
}

// slice decodes an array into *s with encoding/json's semantics: null
// sets nil, [] is non-nil and empty, and elements decode into what
// *s already holds (a repeated key), growing like append.
func slice[T any](d *decoder, s *[]T, elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		*s = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	d.off++
	d.ws()
	v, i := *s, 0
	done := d.peek() == ']'
	if done {
		d.off++
	}
	for !done {
		if i == len(v) {
			if i == cap(v) {
				var zero T
				v = append(v, zero)
			} else {
				v = v[:i+1]
			}
		}
		if err := elem(&v[i]); err != nil {
			return err
		}
		i++
		var err error
		if done, err = d.next(); err != nil {
			return err
		}
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

// next consumes the separator after an array element: done at ']'.
func (d *decoder) next() (done bool, err error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.off++
		d.ws()
		return false, nil
	case ']':
		d.off++
		return true, nil
	}
	return false, d.unexpected("after array element")
}

// floatSlice decodes a number array. A fresh (nil) target is decoded
// into the reused scratch and copied once into an exactly sized slice;
// any other target takes slice's in-place path. A null element is 0 in
// a fresh slice, as encoding/json's zeroed growth leaves it.
func (d *decoder) floatSlice(s *[]float64) error {
	if *s != nil || d.peek() != '[' {
		return slice(d, s, d.float)
	}
	d.off++
	d.ws()
	if d.peek() == ']' {
		d.off++
		*s = []float64{}
		return nil
	}
	buf := d.floats[:0]
	for {
		buf = append(buf, 0)
		if err := d.float(&buf[len(buf)-1]); err != nil {
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

func (d *decoder) frames(v *FramesRequest) error {
	return d.object(framesFields, func(f int) error {
		switch f {
		case 0:
			return d.int(&v.Seq)
		case 1:
			return slice(d, &v.Audio, d.audioFrame)
		case 2:
			return slice(d, &v.IMU, d.imuSample)
		case 3:
			return slice(d, &v.GPS, d.gpsSample)
		}
		return d.bool(&v.Close)
	})
}

func (d *decoder) audioFrame(v *AudioFrame) error {
	return d.object(audioFrameFields, func(f int) error {
		switch f {
		case 0:
			return d.float(&v.StartSeconds)
		case 1:
			return d.float(&v.RateHz)
		}
		return slice(d, &v.Samples, d.floatSlice)
	})
}

func (d *decoder) imuSample(v *IMUSample) error {
	return d.object(imuSampleFields, func(f int) error {
		switch f {
		case 0:
			return d.float(&v.TimeSeconds)
		case 1:
			return d.vec3(&v.Accel)
		case 2:
			return d.vec3(&v.Gyro)
		}
		return d.quat(&v.Att)
	})
}

func (d *decoder) gpsSample(v *GPSSample) error {
	return d.object(gpsSampleFields, func(f int) error {
		switch f {
		case 0:
			return d.float(&v.TimeSeconds)
		case 1:
			return d.vec3(&v.Pos)
		}
		return d.vec3(&v.Vel)
	})
}

func (d *decoder) vec3(v *Vec3) error {
	return d.object(vec3Fields, func(f int) error {
		return d.float([...]*float64{&v.X, &v.Y, &v.Z}[f])
	})
}

func (d *decoder) quat(v *Quat) error {
	return d.object(quatFields, func(f int) error {
		return d.float([...]*float64{&v.W, &v.X, &v.Y, &v.Z}[f])
	})
}
