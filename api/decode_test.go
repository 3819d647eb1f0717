package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"soundboost/internal/acoustics"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

// referenceDecode is the encoding/json strict decode the hand-written
// frames decoder must agree with: one value, unknown fields rejected,
// nothing but whitespace after it.
func referenceDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return errors.New("trailing data")
	}
	return nil
}

// seedFlight is a small flight with full-precision sample values, so a
// chunked body carries realistic number literals.
func seedFlight() *dataset.Flight {
	rec := &acoustics.Recording{SampleRate: 200}
	x := 0.123456789
	for m := range rec.Channels {
		rec.Channels[m] = make([]float64, 20)
		for i := range rec.Channels[m] {
			x = 3.9 * x * (1 - x)
			rec.Channels[m][i] = x - 0.5
		}
	}
	f := &dataset.Flight{Name: "seed", Audio: rec}
	for i := 0; i < 4; i++ {
		f.Telemetry = append(f.Telemetry, dataset.TelemetrySample{
			Time:     float64(i) * 0.025,
			IMUAccel: mathx.Vec3{X: 0.01 * float64(i), Y: -1e-7, Z: -9.80665},
			GPSPos:   mathx.Vec3{X: 1.5, Y: -2.25, Z: -10},
			EstAtt:   mathx.Quat{W: 1},
		})
	}
	return f
}

// frameSeeds are bodies covering the decoder's grammar and every
// encoding/json quirk it reproduces.
func frameSeeds(t testing.TB) []string {
	reqs, err := ChunkFlight(seedFlight(), 0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := json.Marshal(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	pretty, err := json.MarshalIndent(reqs[len(reqs)-1], "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		string(chunk),
		string(pretty),
		strings.ReplaceAll(string(pretty), "\n", "\r\n"),
		// Empty, blank and null bodies.
		``, ` `, `null`, ` null `, `{}`, "\t{ }\r\n",
		// Case-folded and escaped keys.
		`{"SEQ":1,"Close":true}`, `{"ſeq":2}`, `{"Samples":1}`,
		`{"audio":[{"ſtart_ſeconds":1,"RATE_HZ":2,"ſamples":[[1]]}]}`,
		`{"s\u0065q":3,"\u0063lose":false}`, `{"se\/q":1}`, `{"se\q":1}`, `{"seq\u00":1}`,
		// Duplicate keys.
		`{"seq":1,"seq":2}`,
		`{"audio":[{"start_seconds":1,"samples":[[1,2,3],[4]]}],"audio":[{"rate_hz":2,"samples":[[5]]}]}`,
		`{"audio":[{"samples":[[1,2,3]]}],"audio":[{"samples":[[4]]}],"audio":[{"samples":[[5,null,null,null]]}]}`,
		`{"imu":[{"time_seconds":1},{"time_seconds":2}],"imu":[{"accel":{"x":1}}],"imu":[null,null]}`,
		`{"gps":[{"pos":{"x":1}}],"gps":[{"pos":{"y":2}}]}`,
		// Nulls at every level.
		`{"seq":null,"audio":null,"imu":null,"gps":null,"close":null}`,
		`{"seq":4,"seq":null,"audio":[],"audio":null}`,
		`{"audio":[null,{"start_seconds":null,"rate_hz":null,"samples":null}]}`,
		`{"audio":[{"samples":[null,[null,1]]}]}`,
		`{"imu":[{"time_seconds":null,"accel":null,"gyro":{"x":null},"att":{"w":null}}]}`,
		`{"gps":[null,{"pos":null,"vel":{"z":null}}]}`,
		// Empty arrays are non-nil.
		`{"audio":[],"imu":[],"gps":[]}`, `{"audio":[{"samples":[[],[ ]]}]}`,
		// seq typing.
		`{"seq":1.0}`, `{"seq":1e2}`, `{"seq":"1"}`, `{"seq":-0}`, `{"seq":-7}`,
		`{"seq":9223372036854775807}`, `{"seq":9223372036854775808}`, `{"seq":true}`,
		`{"close":1}`, `{"close":"true"}`, `{"close":tru}`,
		// Number grammar and float range.
		`{"gps":[{"time_seconds":1e400}]}`, `{"gps":[{"time_seconds":-1e400}]}`,
		`{"gps":[{"time_seconds":1e-400}]}`, `{"gps":[{"time_seconds":0e999}]}`,
		`{"gps":[{"time_seconds":01}]}`, `{"gps":[{"time_seconds":.5}]}`,
		`{"gps":[{"time_seconds":1.}]}`, `{"gps":[{"time_seconds":+1}]}`,
		`{"gps":[{"time_seconds":-}]}`, `{"gps":[{"time_seconds":1e}]}`,
		`{"gps":[{"time_seconds":1E+2}]}`, `{"gps":[{"time_seconds":-0.0}]}`,
		`{"audio":[{"samples":[[1,2,]]}]}`, `{"audio":[{"samples":[[1 2]]}]}`,
		`{"audio":[{"samples":[["1"]]}]}`, `{"audio":[{"samples":[1]}]}`,
		`{"audio":{"samples":[]}}`, `{"imu":[{"accel":[1,2,3]}]}`,
		// Unknown fields, trailing data, concatenated bodies.
		`{"bogus":1}`, `{"seq":1,"bogus":null}`, `{"imu":[{"accel":{"q":1}}]}`,
		`{} {}`, `{}x`, `{}]`, `null null`, `nullx`, `{"seq":1}{"seq":2}`,
		string(chunk) + string(chunk), string(chunk) + "\n",
		// Syntax errors.
		`{`, `{"seq"`, `{"seq":`, `{"seq":1,}`, `{,}`, `{"seq" 1}`, `{seq:1}`,
		`[]`, `1`, `"x"`, `true`, "\xef\xbb\xbf{}",
		// Raw control characters and escapes in strings.
		"{\"se\nq\":1}", "{\"se\tq\":1}", `{"\"":1}`, `{"\ud800":1}`, "{\"\xff\":1}",
	}
}

// checkSame asserts got/gotErr matches the reference outcome and value.
func checkSame(t *testing.T, body []byte, want, got any, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: encoding/json err = %v, decoder err = %v", body, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("body %q:\nencoding/json %#v\ndecoder       %#v", body, want, got)
	}
	if gotErr != nil && !strings.HasPrefix(gotErr.Error(), "api: decode: ") {
		t.Fatalf("body %q: error %q lacks the api: decode: prefix", body, gotErr)
	}
}

// FuzzDecodeFrames pins DecodeStrict's hand-written FramesRequest path to
// encoding/json: the same accept/reject outcome and DeepEqual values,
// nil-versus-empty slices included.
func FuzzDecodeFrames(f *testing.F) {
	for _, s := range frameSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got FramesRequest
		wantErr := referenceDecode(body, &want)
		gotErr := DecodeStrict(bytes.NewReader(body), &got)
		checkSame(t, body, want, got, wantErr, gotErr)
	})
}

// FuzzDecodeJournalAppend pins the JournalAppend path the same way, and
// checks that the returned chunk span decodes to the decoded chunk.
func FuzzDecodeJournalAppend(f *testing.F) {
	for _, s := range frameSeeds(f) {
		f.Add([]byte(`{"schema_version":"v1","seq":1,"request":{"sample_rate_hz":16000},"chunk":` + s + `}`))
	}
	for _, s := range []string{
		`{"schema_version":"v1","seq":2,"request":{"flight":"f","sample_rate_hz":4000,"precision":"float32"},"chunk":{"seq":2,"close":true}}`,
		`{"Schema_Version":"v\u0031","SEQ":1,"Request":{"Sample_Rate_Hz":1},"CHUNK":{}}`,
		`{"schema_version":"\xff\"é","seq":1}`, `{"schema_version":null,"request":null,"chunk":null}`,
		`{"schema_version":1}`, `{"schema_version":"a` + "\x01" + `"}`,
		`{"request":{"bogus":1}}`, `{"request":{"sample_rate_hz":"x"}}`, `{"request":[]}`,
		`{"request":{},"request":{"flight":"b"}}`, `{"request":{"flight":"a","buffer":2},"request":{"flight":"b"}}`,
		`{"request":{}x}`, `{"request":nullx}`, `{"request":{"flight":"a"}`, `{"request":`,
		`{"chunk":{"seq":1},"chunk":{"close":true}}`, `{"chunk":{"seq":1},"chunk":null}`,
		`{"chunk":{"seq":1}}{}`, `{"chunk":{"seq":1},"kunk":1}`, `{"chunK":{"seq":1}}`,
		`{"seq":1.5}`, `{"seq":1,"seq":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got JournalAppend
		wantErr := referenceDecode(body, &want)
		chunk, gotErr := DecodeJournalAppend(append([]byte(nil), body...), &got)
		checkSame(t, body, want, got, wantErr, gotErr)
		if chunk == nil {
			return
		}
		var again FramesRequest
		if err := DecodeFrames(chunk, &again); err != nil || !reflect.DeepEqual(again, got.Chunk) {
			t.Fatalf("body %q: chunk span %q decodes to %#v (err %v), want %#v", body, chunk, again, err, got.Chunk)
		}
	})
}

// TestDecodeStrictRoutesFrames pins that every DecodeStrict caller of a
// frames DTO runs the hand-written decoder: a body only it would label
// with an offset comes back labeled.
func TestDecodeStrictRoutesFrames(t *testing.T) {
	for _, v := range []any{&FramesRequest{}, &JournalAppend{}} {
		err := DecodeStrict(strings.NewReader(`{"seq":01}`), v)
		if err == nil || !strings.Contains(err.Error(), "at offset") {
			t.Errorf("%T: err = %v, want the frames decoder's error", v, err)
		}
	}
	if err := DecodeStrict(strings.NewReader(`{"seq":01}`), &SessionResponse{}); err == nil || strings.Contains(err.Error(), "at offset") {
		t.Errorf("SessionResponse: err = %v, want encoding/json's error", err)
	}
}

// TestReadBodyPresize pins the sizing contract: a declared size is
// reserved once with one spare byte for a line terminator, a huge
// declaration reserves at most maxPresize, and a reader error stays
// visible to errors.As.
func TestReadBodyPresize(t *testing.T) {
	body := strings.Repeat("x", 1000)
	got, err := ReadBody(strings.NewReader(body), int64(len(body)))
	if err != nil || string(got) != body {
		t.Fatalf("ReadBody = %q, %v", got, err)
	}
	if cap(got) != len(body)+1 {
		t.Errorf("cap = %d, want %d (declared size plus the terminator byte)", cap(got), len(body)+1)
	}
	got, err = ReadBody(strings.NewReader("{}"), 256<<20)
	if err != nil || string(got) != "{}" {
		t.Fatalf("ReadBody = %q, %v", got, err)
	}
	if cap(got) > maxPresize+1 {
		t.Errorf("a 256 MiB declaration reserved %d bytes, want at most %d", cap(got), maxPresize+1)
	}
	long := strings.Repeat("y", 3000)
	if got, err = ReadBody(strings.NewReader(long), 0); err != nil || string(got) != long {
		t.Errorf("unsized read: %d bytes, %v", len(got), err)
	}

	rec := httptest.NewRecorder()
	limited := http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(body)), 10)
	var req FramesRequest
	err = DecodeStrict(limited, &req)
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) || !strings.HasPrefix(err.Error(), "api: decode: ") {
		t.Errorf("oversized body: err = %v, want a prefixed *http.MaxBytesError", err)
	}
}

// benchChunk is the first 2 s chunk of a full-rate (16 kHz, four
// microphone) simulated hover, marshaled as a client posts it.
func benchChunk(b *testing.B) []byte {
	f, err := dataset.Generate(dataset.DefaultGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 4}, 1))
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := ChunkFlight(f, 0.05, 2)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(reqs[0])
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func BenchmarkDecodeFrames(b *testing.B) {
	body := benchChunk(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req FramesRequest
		if err := DecodeStrict(bytes.NewReader(body), &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeFramesReference times the encoding/json strict path on
// the same body, for comparison.
func BenchmarkDecodeFramesReference(b *testing.B) {
	body := benchChunk(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req FramesRequest
		if err := referenceDecode(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJournalAppendBodyMatchesMarshal pins the gateway's splice: with a
// json.Marshal'd chunk it is byte-identical to encoding the whole
// JournalAppend, and the follower's decode hands back the spliced bytes.
func TestJournalAppendBodyMatchesMarshal(t *testing.T) {
	reqs, err := ChunkFlight(seedFlight(), 0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	open := SessionRequest{Flight: "a<b>&c", SampleRateHz: 200, Buffer: 7, Precision: "float32"}
	for i, c := range reqs {
		chunk, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := JournalAppendBody(i+1, open, chunk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(JournalAppend{SchemaVersion: Version, Seq: i + 1, Request: open, Chunk: c})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d:\nspliced %s\nmarshal %s", i, got, want)
		}
		var ja JournalAppend
		span, err := DecodeJournalAppend(got, &ja)
		if err != nil || !bytes.Equal(span, chunk) {
			t.Fatalf("chunk %d: span %q, err %v; want the spliced chunk", i, span, err)
		}
	}
}
