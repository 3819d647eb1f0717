package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"soundboost/api"
	"soundboost/internal/attack"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/parallel"
	"soundboost/internal/sim"
	"soundboost/internal/triage"
)

// Chunking of streamed flights: the `soundboost push -mode session`
// defaults.
const (
	frameSeconds = 0.05
	chunkSeconds = 2.0
	pushBuffer   = 1 << 15
)

// The lab corpus: benign flights to train the acoustic model, benign
// flights to calibrate the detectors, and one flight per attack family
// (with the calibration flights, the triage tier's training set).
const (
	trainFlights = 4
	calibFlights = 8
)

// labSeed fixes the training and calibration corpus. The analyzer is the
// system under test, so it is the same in every run; only the served
// traffic comes from the workload seed.
const labSeed = 1

// missions are the paper's flight families at 9-14 s: hover, a dash out
// and back, and a climb-descend column.
func missions() []sim.Mission {
	return []sim.Mission{
		sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 12},
		sim.NewWaypointMission("dash", mathx.Vec3{Z: -10}, []sim.Waypoint{
			{Pos: mathx.Vec3{X: 8, Z: -10}, Speed: 2, HoldSeconds: 2},
			{Pos: mathx.Vec3{Z: -10}, Speed: 2, HoldSeconds: 2},
		}),
		sim.NewWaypointMission("column", mathx.Vec3{Z: -10}, []sim.Waypoint{
			{Pos: mathx.Vec3{Z: -14}, Speed: 1.5, HoldSeconds: 2},
			{Pos: mathx.Vec3{Z: -10}, Speed: 1.5, HoldSeconds: 2},
		}),
	}
}

// incidentFamilies are the attack families of the batch-incident mix.
var incidentFamilies = []string{"imu-side-swing", "imu-dos", "gps-drift", "gps-static"}

// scenario builds one attack family's scenario over [4 s, 9 s), inside
// every mission's flight time.
func scenario(family string, seed int64) attack.Scenario {
	w := attack.Window{Start: 4, End: 9}
	switch family {
	case "gps-drift":
		return attack.Scenario{Name: family, GPS: &attack.GPSSpoofer{
			Window: w, Mode: attack.GPSSpoofDrift, SpoofOffset: mathx.Vec3{X: 24}}}
	case "gps-static":
		return attack.Scenario{Name: family, GPS: &attack.GPSSpoofer{
			Window: w, Mode: attack.GPSSpoofStatic, SpoofOffset: mathx.Vec3{X: 12}, ReportZeroVel: true}}
	case "imu-side-swing":
		return attack.Scenario{Name: family, IMU: &attack.IMUBiaser{
			Window: w, Mode: attack.IMUSideSwing, Axis: mathx.Vec3{X: 1},
			Magnitude: 1.2, RampSeconds: 1, OscillateHz: 0.9}}
	case "imu-dos":
		return attack.Scenario{Name: family, IMU: &attack.IMUBiaser{
			Window: w, Mode: attack.IMUAccelDoS, Axis: mathx.Vec3{Z: 1},
			Magnitude: 3, Rng: rand.New(rand.NewSource(seed + 1))}}
	default:
		return attack.Scenario{}
	}
}

// flightSpec names one flight to synthesize.
type flightSpec struct {
	mission int
	wind    int
	family  string // "" for benign
	seed    int64
}

// spec returns the i-th flight of a group: missions cycle, and winds
// shift every cycle, so nine consecutive flights cover every mission in
// calm, breezy and gusty air.
func spec(i int, family string, seed int64) flightSpec {
	return flightSpec{mission: i % 3, wind: (i/3 + i) % 3, family: family, seed: seed}
}

// generate synthesizes flights at the paper's rates (16 kHz, 4 mics) on
// the worker pool.
func generate(specs []flightSpec) ([]*dataset.Flight, error) {
	ms := missions()
	return parallel.MapErr(0, len(specs), func(i int) (*dataset.Flight, error) {
		sp := specs[i]
		cfg := dataset.DefaultGenConfig(ms[sp.mission], sp.seed)
		cfg.World.Wind = []func() sim.WindConfig{sim.CalmWind, sim.BreezyWind, sim.GustyWind}[sp.wind]()
		if sp.family != "" {
			cfg.Scenario = scenario(sp.family, sp.seed)
		}
		cfg.Name = fmt.Sprintf("%s-%d", cfg.Mission.Name(), sp.seed)
		if sp.family != "" {
			cfg.Name += "-" + sp.family
		}
		f, err := dataset.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", cfg.Name, err)
		}
		return f, nil
	})
}

// trafficSpecs returns the served flights of a workload, derived from
// the workload seed.
func trafficSpecs(workload string, seed int64) []flightSpec {
	base := 100000 + seed*1000
	var specs []flightSpec
	switch workload {
	case "batch-incident":
		// Incident-heavy: one flight per attack family plus a benign
		// control.
		for i, fam := range incidentFamilies {
			specs = append(specs, spec(i, fam, base+int64(i)*7))
		}
		specs = append(specs, spec(len(incidentFamilies), "", base+97))
	default:
		// Fleet monitoring: eight benign flights and one GPS drift.
		for i := 0; i < 8; i++ {
			specs = append(specs, spec(i, "", base+int64(i)*7))
		}
		specs = append(specs, spec(8, "gps-drift", base+97))
	}
	return specs
}

// poolFlight is one served flight with everything a client sends and
// expects, prepared in set-up.
type poolFlight struct {
	// sbf is the flight's .sbf encoding, split around its name so each
	// upload can carry a unique one: sbfHead + name + sbfTail.
	sbfHead, sbfTail []byte
	// chunks are the encoded FramesRequest bodies of a streamed upload.
	chunks [][]byte
	// ref is the in-process reference verdict.
	ref soundboost.Report
	// rate is the audio sample rate.
	rate float64
	// fast marks a reference verdict the triage tier short-circuited.
	fast bool
}

// body returns the .sbf upload of this flight under a session name,
// which must need no JSON escaping.
func (p *poolFlight) body(name string) []byte {
	b := make([]byte, 0, len(p.sbfHead)+len(name)+len(p.sbfTail))
	b = append(append(append(b, p.sbfHead...), name...), p.sbfTail...)
	return b
}

// want returns the exact report bytes a served session named name must
// return: the reference verdict under that name, encoded as the wire
// DTO.
func (p *poolFlight) want(name string) ([]byte, error) {
	r := p.ref
	r.Flight = name
	return json.Marshal(api.ReportFromCore(r))
}

// describe summarizes the pool's reference verdicts.
func (l *lab) describe() string {
	fast := 0
	causes := map[soundboost.RootCause]int{}
	for _, p := range l.pool {
		causes[p.ref.Cause]++
		if p.fast {
			fast++
		}
	}
	return fmt.Sprintf("%d flights, %d fast-pathed by triage, causes %v", len(l.pool), fast, causes)
}

// lab is the benchmark's system under test: a trained, calibrated,
// triage-equipped analyzer plus the prepared traffic pool.
type lab struct {
	an   *soundboost.Analyzer
	pool []*poolFlight
}

// buildLab trains and calibrates the analyzer, attaches and verifies the
// triage tier, and prepares the workload's traffic: flights round-tripped
// through .sbf (the recorder's format, float32 audio), their reference
// reports, and their encoded request bodies.
func buildLab(workload string, seed int64) (*lab, error) {
	var corpus []flightSpec
	for i := 0; i < trainFlights; i++ {
		corpus = append(corpus, spec(i, "", labSeed*1000+int64(i)*7))
	}
	for i := 0; i < calibFlights; i++ {
		corpus = append(corpus, spec(i, "", labSeed*1000+500+int64(i)*7))
	}
	for i, fam := range incidentFamilies {
		corpus = append(corpus, spec(i, fam, labSeed*1000+900+int64(i)*7))
	}
	traffic := trafficSpecs(workload, seed)
	flights, err := generate(append(corpus, traffic...))
	if err != nil {
		return nil, err
	}
	train, calib, attacks := flights[:trainFlights], flights[trainFlights:len(corpus)-len(incidentFamilies)],
		flights[len(corpus)-len(incidentFamilies):len(corpus)]
	served := flights[len(corpus):]

	sig := soundboost.DefaultSignatureConfig(dataset.DefaultGenConfig(missions()[0], 0).Synth)
	mcfg := soundboost.DefaultMappingConfig(sig)
	mcfg.Hidden = 32
	mcfg.Train.Epochs = 20
	mcfg.Seed = labSeed
	model, _, err := soundboost.TrainModel(train, nil, mcfg)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	an, err := soundboost.NewAnalyzer(model, calib)
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	screening := append(append([]*dataset.Flight(nil), calib...), attacks...)
	tier, err := soundboost.TrainTriage(screening, sig, triage.Config{})
	if err != nil {
		return nil, fmt.Errorf("triage: %w", err)
	}
	an.Triage = tier
	if _, _, err := an.VerifyTriage(screening); err != nil {
		return nil, fmt.Errorf("verify triage: %w", err)
	}

	streamed := workload != "batch-incident"
	pool, err := parallel.MapErr(0, len(served), func(i int) (*poolFlight, error) {
		return prepare(an, served[i], streamed)
	})
	if err != nil {
		return nil, err
	}
	return &lab{an: an, pool: pool}, nil
}

// prepare encodes one served flight — as .sbf, and as frames requests
// when it is streamed — and computes its reference report.
func prepare(an *soundboost.Analyzer, f *dataset.Flight, streamed bool) (*poolFlight, error) {
	var sbf bytes.Buffer
	if err := f.Save(&sbf); err != nil {
		return nil, err
	}
	// What a server sees is the recorded flight, float32 audio and all.
	rec, err := dataset.Load(bytes.NewReader(sbf.Bytes()))
	if err != nil {
		return nil, err
	}
	ref, err := an.Analyze(rec)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", f.Name, err)
	}
	prefix := []byte(`{"name":`)
	quoted, err := json.Marshal(f.Name)
	if err != nil {
		return nil, err
	}
	raw := sbf.Bytes()
	if !bytes.HasPrefix(raw, append(prefix, quoted...)) {
		return nil, fmt.Errorf("prepare %s: .sbf header does not start with the name", f.Name)
	}
	head := append(append([]byte(nil), prefix...), '"')
	tail := append([]byte{'"'}, raw[len(prefix)+len(quoted):]...)

	p := &poolFlight{
		sbfHead: head, sbfTail: tail, ref: ref, rate: rec.Audio.SampleRate, fast: ref == soundboost.FastBenignReport(rec.Name, an),
	}
	if !streamed {
		return p, nil
	}
	reqs, err := api.ChunkFlight(rec, frameSeconds, chunkSeconds)
	if err != nil {
		return nil, err
	}
	p.chunks = make([][]byte, len(reqs))
	for i, r := range reqs {
		if p.chunks[i], err = json.Marshal(r); err != nil {
			return nil, err
		}
	}
	return p, nil
}
