package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"soundboost/internal/jsonscan"
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
	d := newDecoder(body)
	return wrap(d.Top(func() error { return d.frames(v) }))
}

// DecodeJournalAppend strictly decodes one JournalAppend body, like
// DecodeFrames (FuzzDecodeJournalAppend pins it to encoding/json); the
// small request object goes through encoding/json. When the body holds
// exactly one "chunk" key and its value is an object, chunk is that
// value's span of body: decoded into a zero FramesRequest it yields
// v.Chunk (v zero on entry), so a follower can journal the bytes it was
// sent. Otherwise chunk is nil.
func DecodeJournalAppend(body []byte, v *JournalAppend) (chunk []byte, err error) {
	d := newDecoder(body)
	err = d.Top(func() error {
		var start, end, seen int
		err := d.Object(journalAppendFields, func(f int) error {
			switch f {
			case 0:
				return d.Str(&v.SchemaVersion)
			case 1:
				return d.Int(&v.Seq)
			case 2:
				return d.sessionRequest(body, &v.Request)
			}
			seen++
			start = d.Offset()
			err := d.frames(&v.Chunk)
			end = d.Offset()
			return err
		})
		if err == nil && seen == 1 && body[start] == '{' {
			chunk = body[start:end]
		}
		return err
	})
	if err != nil {
		return nil, wrap(err)
	}
	return chunk, nil
}

// wrap gives a scanner error the package's prefix.
func wrap(err error) error {
	if err != nil {
		return fmt.Errorf("api: decode: %w", err)
	}
	return nil
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

// decoder is the strict scanner plus the frames schema's callbacks.
type decoder struct {
	jsonscan.Decoder
}

func newDecoder(body []byte) *decoder {
	d := &decoder{jsonscan.NewDecoder(body)}
	d.DisallowUnknownFields()
	return d
}

// sessionRequest decodes the value at the decoder's offset in body
// through encoding/json's strict path, on the bytes from there onwards;
// json.Decoder stops after the one value and reports where.
func (d *decoder) sessionRequest(body []byte, v *SessionRequest) error {
	dec := json.NewDecoder(bytes.NewReader(body[d.Offset():]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	d.Advance(int(dec.InputOffset()))
	return nil
}

func (d *decoder) frames(v *FramesRequest) error {
	return d.Object(framesFields, func(f int) error {
		switch f {
		case 0:
			return d.Int(&v.Seq)
		case 1:
			return jsonscan.Slice(&d.Decoder, &v.Audio, d.audioFrame)
		case 2:
			return jsonscan.Slice(&d.Decoder, &v.IMU, d.imuSample)
		case 3:
			return jsonscan.Slice(&d.Decoder, &v.GPS, d.gpsSample)
		}
		return d.Bool(&v.Close)
	})
}

func (d *decoder) audioFrame(v *AudioFrame) error {
	return d.Object(audioFrameFields, func(f int) error {
		switch f {
		case 0:
			return d.Float(&v.StartSeconds)
		case 1:
			return d.Float(&v.RateHz)
		}
		return jsonscan.Slice(&d.Decoder, &v.Samples, d.FloatSlice)
	})
}

func (d *decoder) imuSample(v *IMUSample) error {
	return d.Object(imuSampleFields, func(f int) error {
		switch f {
		case 0:
			return d.Float(&v.TimeSeconds)
		case 1:
			return d.vec3(&v.Accel)
		case 2:
			return d.vec3(&v.Gyro)
		}
		return d.quat(&v.Att)
	})
}

func (d *decoder) gpsSample(v *GPSSample) error {
	return d.Object(gpsSampleFields, func(f int) error {
		switch f {
		case 0:
			return d.Float(&v.TimeSeconds)
		case 1:
			return d.vec3(&v.Pos)
		}
		return d.vec3(&v.Vel)
	})
}

func (d *decoder) vec3(v *Vec3) error {
	return d.Object(vec3Fields, func(f int) error {
		return d.Float([...]*float64{&v.X, &v.Y, &v.Z}[f])
	})
}

func (d *decoder) quat(v *Quat) error {
	return d.Object(quatFields, func(f int) error {
		return d.Float([...]*float64{&v.W, &v.X, &v.Y, &v.Z}[f])
	})
}
