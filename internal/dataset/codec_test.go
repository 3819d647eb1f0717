package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"soundboost/internal/acoustics"
	"soundboost/internal/attack"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

// headerLine is the JSON header line Save writes for f.
func headerLine(t testing.TB, f *Flight) []byte {
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(&buf).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// headerSeeds are header lines covering the decoder's schema and every
// json.Unmarshal quirk it reproduces.
func headerSeeds(t testing.TB) []string {
	f, err := Generate(quickGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -8}, Seconds: 0.1}, 7))
	if err != nil {
		t.Fatal(err)
	}
	f.Telemetry[0].AuxIMUAccel = []mathx.Vec3{{X: 0.5, Y: -1e-9, Z: -9.81}}
	f.Scenario = ScenarioMeta{Kind: "gps-drift", Window: attack.Window{Start: 1, End: 2.5}}
	line := headerLine(t, f)
	pretty, err := json.MarshalIndent(flightHeader{Name: "p", Telemetry: f.Telemetry[:2], AudioSamples: 3}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		string(line),
		string(pretty),
		// Empty, blank and null headers.
		``, ` `, "\n", `null`, `{}`, "{}\n", "\t{ }\r\n",
		// Case-folded and escaped keys.
		`{"NAME":"a","Mission":"b","ſcenario":{"kind":"gps","window":{"start":1,"END":2}}}`,
		`{"n\u0061me":"x","audio_\u0073amples":3,"AUDIO_RATE":16000}`,
		`{"scenario":{"\u212aind":"k"}}`, `{"na\/me":"x"}`, `{"na\me":"x"}`, `{"name\u00":"x"}`,
		`{"telemetry":[{"time":1,"imuaccel":{"x":1},"estatt":{"w":1},"motor":[1,2,3,4],"AUX_IMU_ACCEL":[{"x":1}],"trueaccel":{"Z":-9}}]}`,
		// Unknown keys holding nested values, valid and not.
		`{"bogus":{"a":[1,{"b":null}],"c":"d"},"name":"x","more":[[],[{}],true,false,null,-1.5e3,"s\"t"]}`,
		`{"telemetry":[{"extra":{"deep":[[[1]]]},"Time":2,"z":1e400}],"Name":"y"}`,
		`{"scenario":{"Window":{"Mid":[1,2],"End":3},"Extra":{}}}`,
		`{"bogus":[1,}`, `{"bogus":01}`, `{"bogus":tru}`, "{\"bogus\":\"\x01\"}", `{"bogus":{"a" 1}}`,
		`{"bogus":{1:2}}`, `{"bogus":[1 2]}`, `{"bogus":}`, `{"bogus":"\q"}`, `{"bogus":-}`, `{"bogus":{"a":1,}}`,
		// Motor arrays short, long, repeated, empty and null.
		`{"telemetry":[{"Motor":[1,2,3]}]}`, `{"telemetry":[{"Motor":[1,2,3,4,5]}]}`,
		`{"telemetry":[{"Motor":[1,2,3,4,{"x":[1]},"y"]}]}`, `{"telemetry":[{"Motor":[1,2,3,4,[}]}]}`,
		`{"telemetry":[{"Motor":[1,2,3,4],"Motor":[5,6]}]}`, `{"telemetry":[{"Motor":[1,2,3,4],"Motor":[]}]}`,
		`{"telemetry":[{"Motor":[1,2,3,4],"Motor":null}]}`, `{"telemetry":[{"Motor":[1,2,3,4],"Motor":[null,7]}]}`,
		`{"telemetry":[{"Motor":{}}]}`, `{"telemetry":[{"Motor":["1"]}]}`, `{"telemetry":[{"Motor":[1,2,3,4,5,]}]}`,
		// Nulls in each position.
		`{"name":null,"mission":null,"scenario":null,"telemetry":null,"audio_rate":null,"audio_samples":null}`,
		`{"name":"a","name":null,"telemetry":[],"telemetry":null}`,
		`{"scenario":{"Kind":null,"Window":null}}`, `{"scenario":{"Window":{"Start":null,"End":null}}}`,
		`{"telemetry":[null,{"Time":null,"IMUAccel":null,"aux_imu_accel":null,"Motor":null,"EstAtt":{"W":null}}]}`,
		`{"telemetry":[{"aux_imu_accel":[null,{"X":null}]}]}`, `{"telemetry":[{"Motor":[null,null,null,null,null]}]}`,
		// Duplicate keys.
		`{"name":"a","name":"b"}`, `{"scenario":{"Kind":"a"},"scenario":{"Window":{"Start":1}}}`,
		`{"telemetry":[{"Time":1},{"Time":2}],"telemetry":[{"IMUAccel":{"X":1}}]}`,
		`{"telemetry":[{"Time":1},{"Time":2}],"telemetry":[{"Time":3}],"telemetry":[null,null]}`,
		`{"telemetry":[{"aux_imu_accel":[{"X":1},{"X":2}]}],"telemetry":[{"aux_imu_accel":[{"Y":3}]}]}`,
		// Empty arrays are non-nil.
		`{"telemetry":[]}`, `{"telemetry":[{"aux_imu_accel":[ ]}]}`,
		// audio_samples typing.
		`{"audio_samples":1.0}`, `{"audio_samples":1e3}`, `{"audio_samples":"3"}`, `{"audio_samples":-1}`,
		`{"audio_samples":9223372036854775807}`, `{"audio_samples":9223372036854775808}`, `{"audio_samples":true}`,
		// Number grammar and float range.
		`{"audio_rate":1e400}`, `{"audio_rate":-1e400}`, `{"audio_rate":1e-400}`, `{"audio_rate":-0}`,
		`{"audio_rate":01}`, `{"audio_rate":.5}`, `{"audio_rate":1.}`, `{"audio_rate":+1}`, `{"audio_rate":1E+2}`,
		// Wrong types.
		`{"name":1}`, `{"scenario":[]}`, `{"telemetry":{}}`, `{"telemetry":[1]}`, `{"telemetry":[{"IMUAccel":[1,2,3]}]}`,
		// Trailing data and syntax errors.
		`{} {}`, `{}x`, `null null`, `nullx`, `{`, `{"name"`, `{"name":`, `{"name":"a",}`, `{,}`, `{name:1}`,
		`[]`, `1`, `"x"`, `true`, "\xef\xbb\xbf{}",
		// Strings: raw control characters, escapes, invalid UTF-8.
		"{\"name\":\"a\nb\"}", `{"name":"\"\u00e9\ud800"}`, "{\"name\":\"\xff\"}", "{\"\xff\":1}",
	}
}

// checkHeader asserts decodeHeader and json.Unmarshal agree on line:
// the same accept/reject outcome and, when both accept, the same values
// bit for bit (%#v spells -0 and nil-versus-empty slices).
func checkHeader(t *testing.T, line []byte) {
	t.Helper()
	var want, got flightHeader
	wantErr := json.Unmarshal(line, &want)
	gotErr := decodeHeader(line, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("line %q: json.Unmarshal err = %v, decodeHeader err = %v", line, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if w, g := fmt.Sprintf("%#v", want), fmt.Sprintf("%#v", got); !reflect.DeepEqual(want, got) || w != g {
		t.Fatalf("line %q:\njson.Unmarshal %s\ndecodeHeader   %s", line, w, g)
	}
}

// FuzzDecodeFlightHeader pins Load's hand-written header decoder to
// json.Unmarshal: the same accept/reject outcome and bit-identical
// values, nil-versus-empty slices included.
func FuzzDecodeFlightHeader(f *testing.F) {
	for _, s := range headerSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(checkHeader)
}

// TestDecodeHeaderDepth pins encoding/json's nesting limit on a skipped
// value: 10000 open arrays and objects are accepted, 10001 are not.
func TestDecodeHeaderDepth(t *testing.T) {
	for _, k := range []int{9999, 10000} {
		checkHeader(t, []byte(`{"x":`+strings.Repeat("[", k)+strings.Repeat("]", k)+`}`))
		checkHeader(t, []byte(`{"telemetry":[{"x":`+strings.Repeat(`{"a":`, k-2)+`1`+strings.Repeat("}", k-2)+`}]}`))
	}
}

// saveReference is the encoder Save replaced: the same header, then one
// write per 4-byte sample.
func saveReference(f *Flight, w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := flightHeader{Name: f.Name, Mission: f.Mission, Scenario: f.Scenario, Telemetry: f.Telemetry,
		AudioRate: f.Audio.SampleRate, AudioSamples: f.Audio.Samples()}
	if err := json.NewEncoder(bw).Encode(hdr); err != nil {
		return err
	}
	bw.WriteString(audioMagic)
	buf := make([]byte, 4)
	for i := 0; i < f.Audio.Samples(); i++ {
		for m := range f.Audio.Channels {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(float32(f.Audio.Channels[m][i])))
			bw.Write(buf)
		}
	}
	return bw.Flush()
}

// TestSaveMatchesPerSampleEncoder pins Save's block writes byte for
// byte to the per-sample encoder, on a payload of several blocks and a
// partial last one.
func TestSaveMatchesPerSampleEncoder(t *testing.T) {
	f, err := Generate(quickGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -8}, Seconds: 2.3}, 11))
	if err != nil {
		t.Fatal(err)
	}
	if n := f.Audio.Samples() * 4 * acoustics.NumMics; n < 2*audioBlock || n%audioBlock == 0 {
		t.Fatalf("payload of %d bytes does not span a partial block", n)
	}
	var got, want bytes.Buffer
	if err := f.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := saveReference(f, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Save wrote %d bytes differing from the per-sample encoder's %d", got.Len(), want.Len())
	}
}

// longFlight is a flight with no telemetry and n samples per channel of
// distinct values.
func longFlight(n int) *Flight {
	rec := &acoustics.Recording{SampleRate: 16000}
	for m := range rec.Channels {
		rec.Channels[m] = make([]float64, n)
		for i := range rec.Channels[m] {
			rec.Channels[m][i] = float64(float32(math.Sin(float64(i*(m+1)) * 1e-3)))
		}
	}
	return &Flight{Name: "long", Audio: rec}
}

// TestLoadGrowsPastPresize loads a recording longer than maxPresize:
// every sample arrives, and the channels end exactly sized.
func TestLoadGrowsPastPresize(t *testing.T) {
	f := longFlight(maxPresize + 3*audioBlock/16 + 5)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for m, ch := range got.Audio.Channels {
		if !reflect.DeepEqual(ch, f.Audio.Channels[m]) || cap(ch) != len(ch) {
			t.Fatalf("channel %d: %d samples (cap %d), want the %d saved", m, len(ch), cap(ch), len(f.Audio.Channels[m]))
		}
	}
}

// TestLoadShortPayload pins the error a truncated payload gets: the
// first missing sample, io.EOF between samples and io.ErrUnexpectedEOF
// inside one, as the per-sample reader reported it.
func TestLoadShortPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := longFlight(5000).Save(&buf); err != nil {
		t.Fatal(err)
	}
	payload := bytes.IndexByte(buf.Bytes(), '\n') + 1 + len(audioMagic)
	for _, c := range []struct {
		cut  int
		want string
		eof  error
	}{
		{0, "sample 0: EOF", io.EOF},
		{2, "sample 0: unexpected EOF", io.ErrUnexpectedEOF},
		{16*4097 + 4, "sample 4097: EOF", io.EOF},
		{16*4999 + 13, "sample 4999: unexpected EOF", io.ErrUnexpectedEOF},
	} {
		_, err := Load(bytes.NewReader(buf.Bytes()[:payload+c.cut]))
		if err == nil || !strings.HasSuffix(err.Error(), "read audio "+c.want) || !errors.Is(err, c.eof) {
			t.Errorf("cut at %d: err = %v, want read audio %s", c.cut, err, c.want)
		}
	}
}

// TestLoadHugeDeclaredCount loads a header declaring 1<<62 samples
// over a payload of one and a bit: Load fails on the missing samples
// instead of reserving the declared count (which panicked in make).
func TestLoadHugeDeclaredCount(t *testing.T) {
	body := fmt.Sprintf("{\"audio_rate\":16000,\"audio_samples\":%d}\n%s%s", 1<<62, audioMagic, make([]byte, 20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(strings.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.HasSuffix(err.Error(), "read audio sample 1: EOF") {
		t.Errorf("err = %v, want read audio sample 1: EOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("Load allocated %d bytes", grew)
	}
}

// BenchmarkLoad loads one 10 s full-rate (16 kHz, four microphone)
// hover from memory.
func BenchmarkLoad(b *testing.B) {
	f, err := Generate(DefaultGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 10}, 1))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
