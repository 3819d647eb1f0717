package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"soundboost/internal/acoustics"
	"soundboost/internal/jsonscan"
	"soundboost/internal/mathx"
)

// flightHeader is the JSON metadata written alongside the binary audio.
type flightHeader struct {
	Name      string            `json:"name"`
	Mission   string            `json:"mission"`
	Scenario  ScenarioMeta      `json:"scenario"`
	Telemetry []TelemetrySample `json:"telemetry"`
	// AudioRate and AudioSamples describe the binary payload that follows.
	AudioRate    float64 `json:"audio_rate"`
	AudioSamples int     `json:"audio_samples"`
}

const audioMagic = "SBAU"

// Save writes the flight to w: a JSON header line followed by the raw
// little-endian float32 audio payload (channel-interleaved). float32 halves
// the footprint with no measurable effect on band energies.
func (f *Flight) Save(w io.Writer) error {
	samples := 0
	rate := 0.0
	if f.Audio != nil {
		samples = f.Audio.Samples()
		rate = f.Audio.SampleRate
	}
	hdr := flightHeader{
		Name:         f.Name,
		Mission:      f.Mission,
		Scenario:     f.Scenario,
		Telemetry:    f.Telemetry,
		AudioRate:    rate,
		AudioSamples: samples,
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("dataset: encode header: %w", err)
	}
	if _, err := bw.WriteString(audioMagic); err != nil {
		return err
	}
	if f.Audio != nil {
		buf := make([]byte, 0, audioBlock)
		for i := 0; i < samples; i++ {
			for m := range f.Audio.Channels {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(f.Audio.Channels[m][i])))
			}
			if len(buf) == cap(buf) || i == samples-1 {
				if _, err := bw.Write(buf); err != nil {
					return fmt.Errorf("dataset: write audio: %w", err)
				}
				buf = buf[:0]
			}
		}
	}
	return bw.Flush()
}

// Load reads a flight written by Save.
func Load(r io.Reader) (*Flight, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	var hdr flightHeader
	if err := decodeHeader(line, &hdr); err != nil {
		return nil, fmt.Errorf("dataset: decode header: %w", err)
	}
	magic := make([]byte, len(audioMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataset: read audio magic: %w", err)
	}
	if string(magic) != audioMagic {
		return nil, fmt.Errorf("dataset: bad audio magic %q", magic)
	}
	f := &Flight{
		Name:      hdr.Name,
		Mission:   hdr.Mission,
		Scenario:  hdr.Scenario,
		Telemetry: hdr.Telemetry,
	}
	if hdr.AudioSamples > 0 {
		if f.Audio, err = readAudio(br, hdr.AudioSamples); err != nil {
			return nil, err
		}
		f.Audio.SampleRate = hdr.AudioRate
	}
	return f, nil
}

// audioBlock is the size of the buffer Save writes the audio payload
// through: 4096 frames of one float32 sample per microphone.
const audioBlock = 64 << 10

// maxPresize caps how many samples per channel readAudio reserves from
// the header's declared count before any arrive: 8 MiB over the four
// channels, about 16 s at 16 kHz. A header declaring more than its
// payload holds cannot make Load reserve what it declared; longer
// recordings grow as their bytes arrive.
const maxPresize = 1 << 18

// readAudio reads n channel-interleaved float32 frames, converting
// them straight out of br's buffer a buffer-full at a time. A payload
// that ends early is reported at its first missing sample: io.EOF when
// it ends between samples, io.ErrUnexpectedEOF inside one.
func readAudio(br *bufio.Reader, n int) (*acoustics.Recording, error) {
	const frame = 4 * acoustics.NumMics
	rec := &acoustics.Recording{}
	for m := range rec.Channels {
		rec.Channels[m] = make([]float64, 0, min(n, maxPresize))
	}
	for have := 0; have < n; {
		k := min(n-have, br.Size()/frame)
		buf, err := br.Peek(k * frame)
		if err != nil {
			at := have*frame + len(buf)
			if err == io.EOF && at%4 != 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("dataset: read audio sample %d: %w", at/frame, err)
		}
		if have+k > cap(rec.Channels[0]) {
			size := min(max(2*cap(rec.Channels[0]), have+k), n)
			for m := range rec.Channels {
				rec.Channels[m] = append(make([]float64, 0, size), rec.Channels[m]...)
			}
		}
		for m := range rec.Channels {
			rec.Channels[m] = rec.Channels[m][:have+k]
			ch := rec.Channels[m][have:]
			for i := range ch {
				ch[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[(i*acoustics.NumMics+m)*4:])))
			}
		}
		br.Discard(len(buf)) // cannot fail: Peek buffered these bytes
		have += k
	}
	return rec, nil
}

// Field names of the header's structs, in the order encoding/json
// writes them; a decoder's callback switches on the index.
var (
	headerFields    = []string{"name", "mission", "scenario", "telemetry", "audio_rate", "audio_samples"}
	scenarioFields  = []string{"Kind", "Window"}
	windowFields    = []string{"Start", "End"}
	telemetryFields = []string{"Time", "IMUAccel", "IMUGyro", "aux_imu_accel", "GPSPos", "GPSVel",
		"EstAtt", "Motor", "TruePos", "TrueVel", "TrueAccel"}
	vec3Fields = []string{"X", "Y", "Z"}
	quatFields = []string{"W", "X", "Y", "Z"}
)

// decodeHeader decodes a header line as json.Unmarshal(line, h) does —
// the same accept set and bit-identical values, pinned by
// FuzzDecodeFlightHeader — without reflection: unknown keys are skipped,
// keys match case-folded, null leaves a value alone (a slice nil), and
// Motor drops extra elements and zeroes missing ones.
func decodeHeader(line []byte, h *flightHeader) error {
	d := headerDecoder{jsonscan.NewDecoder(line)}
	return d.Top(func() error {
		return d.Object(headerFields, func(f int) error {
			switch f {
			case 0:
				return d.Str(&h.Name)
			case 1:
				return d.Str(&h.Mission)
			case 2:
				return d.scenario(&h.Scenario)
			case 3:
				return jsonscan.Slice(&d.Decoder, &h.Telemetry, d.telemetry)
			case 4:
				return d.Float(&h.AudioRate)
			}
			return d.Int(&h.AudioSamples)
		})
	})
}

// headerDecoder is the scanner plus the header schema's callbacks.
type headerDecoder struct {
	jsonscan.Decoder
}

func (d *headerDecoder) scenario(v *ScenarioMeta) error {
	return d.Object(scenarioFields, func(f int) error {
		if f == 0 {
			return d.Str(&v.Kind)
		}
		return d.Object(windowFields, func(f int) error {
			return d.Float([...]*float64{&v.Window.Start, &v.Window.End}[f])
		})
	})
}

func (d *headerDecoder) telemetry(v *TelemetrySample) error {
	return d.Object(telemetryFields, func(f int) error {
		switch f {
		case 0:
			return d.Float(&v.Time)
		case 1:
			return d.vec3(&v.IMUAccel)
		case 2:
			return d.vec3(&v.IMUGyro)
		case 3:
			return jsonscan.Slice(&d.Decoder, &v.AuxIMUAccel, d.vec3)
		case 4:
			return d.vec3(&v.GPSPos)
		case 5:
			return d.vec3(&v.GPSVel)
		case 6:
			return d.quat(&v.EstAtt)
		case 7:
			return jsonscan.Array(&d.Decoder, v.Motor[:], d.Float)
		case 8:
			return d.vec3(&v.TruePos)
		case 9:
			return d.vec3(&v.TrueVel)
		}
		return d.vec3(&v.TrueAccel)
	})
}

func (d *headerDecoder) vec3(v *mathx.Vec3) error {
	return d.Object(vec3Fields, func(f int) error {
		return d.Float([...]*float64{&v.X, &v.Y, &v.Z}[f])
	})
}

func (d *headerDecoder) quat(v *mathx.Quat) error {
	return d.Object(quatFields, func(f int) error {
		return d.Float([...]*float64{&v.W, &v.X, &v.Y, &v.Z}[f])
	})
}

// SaveFile writes the flight to path, creating parent directories.
func (f *Flight) SaveFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("dataset: mkdir: %w", err)
	}
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: create: %w", err)
	}
	defer file.Close()
	if err := f.Save(file); err != nil {
		return err
	}
	return file.Close()
}

// LoadFile reads a flight from path.
func LoadFile(path string) (*Flight, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open: %w", err)
	}
	defer file.Close()
	return Load(file)
}
