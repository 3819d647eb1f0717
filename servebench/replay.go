package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"soundboost/api"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/journal"
	"soundboost/internal/mavbus"
	"soundboost/internal/stream"
)

// part is one replayed call and how long it took.
type part struct {
	name string
	dur  float64
}

// timed runs fn and returns its wall time in seconds.
func timed(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// graft attaches replayed calls under a live span, laid back to back
// from the parent's start in the order the handler makes them, and
// returns their indices.
func graft(spans *[]Span, parent int, parts []part) []int {
	p := (*spans)[parent]
	at := p.Start
	idx := make([]int, len(parts))
	for i, pt := range parts {
		idx[i] = len(*spans)
		*spans = append(*spans, Span{Trace: p.Trace, Name: pt.name, Start: at, End: at + pt.dur, Parent: parent})
		at += pt.dur
	}
	return idx
}

// kernels are the replay measurements outside the blocking-path tree:
// the stream engine runs beside the requests, and the signature and
// inference kernels break the detector rows down.
type kernels struct {
	engine, signature, predict float64
}

// replayer re-runs the public calls each handler makes over the traced
// sessions' own request bodies.
type replayer struct {
	l        *lab
	owner    *journal.Store
	follower *journal.Store
	n        int
}

// newReplayer opens the journal stores the replay appends to under dir.
func newReplayer(l *lab, dir string) (*replayer, error) {
	owner, err := journal.Open(filepath.Join(dir, "replay", "owner"))
	if err != nil {
		return nil, err
	}
	follower, err := journal.Open(filepath.Join(dir, "replay", "follower"))
	if err != nil {
		return nil, err
	}
	return &replayer{l: l, owner: owner, follower: follower}, nil
}

// byName indexes a trace's live spans of one name in start order.
func byName(spans []Span, idx []int, name string) []int {
	var out []int
	for _, i := range idx {
		if spans[i].Name == name {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return spans[out[a]].Start < spans[out[b]].Start })
	return out
}

// session replays one traced session and grafts its calls under the
// matching live handler spans (idx are the trace's live spans).
func (r *replayer) session(spans *[]Span, idx []int, s *session, workload string, k *kernels) error {
	p := r.l.pool[s.pool]
	if workload == "batch-incident" {
		return r.batch(spans, idx, s, p, k)
	}
	return r.stream(spans, idx, s, p, workload == "fleet-stream", k)
}

// stream replays handleFrames per chunk (strict decode, journal append
// with fsync, publish into a live engine), the follower's journal append
// for fleet-stream, and the report encode.
func (r *replayer) stream(spans *[]Span, idx []int, s *session, p *poolFlight, fleet bool, k *kernels) error {
	frames := byName(*spans, idx, "server.frames")
	appends := byName(*spans, idx, "server.follower_append")
	reports := byName(*spans, idx, "server.report")
	if len(frames) != len(p.chunks) || len(reports) != 1 || (fleet && len(appends) != len(p.chunks)) {
		return fmt.Errorf("replay %s: %d frames, %d follower appends and %d report spans for %d chunks",
			s.name, len(frames), len(appends), len(reports), len(p.chunks))
	}
	r.n++
	id := fmt.Sprintf("replay-%06d", r.n)
	open := api.SessionRequest{Flight: s.name, SampleRateHz: p.rate, Buffer: pushBuffer}
	eng, err := stream.New(r.l.an, p.rate, stream.WithFlightName(s.name), stream.WithBuffer(pushBuffer))
	if err != nil {
		return err
	}
	bus := mavbus.NewBus(0)
	if err := eng.Attach(bus); err != nil {
		return err
	}
	type result struct {
		rep soundboost.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := eng.Run(context.Background())
		done <- result{rep, err}
	}()
	// finish ends the stream and waits for the engine's verdict; it runs
	// once, on success or on any early return.
	var res result
	finished := false
	finish := func() result {
		if !finished {
			finished = true
			bus.Close()
			res = <-done
		}
		return res
	}
	defer finish()
	sj, err := r.owner.Session(id)
	if err != nil {
		return err
	}
	defer sj.Remove()
	var fj *journal.Session
	if fleet {
		if fj, err = r.follower.Session(id); err != nil {
			return err
		}
		defer fj.Remove()
	}
	var all []mavbus.Message
	for i, body := range p.chunks {
		var req api.FramesRequest
		dec, err := timed(func() error { return api.DecodeStrict(bytes.NewReader(body), &req) })
		if err != nil {
			return err
		}
		app, err := timed(func() error { return sj.AppendChunk(req) })
		if err != nil {
			return err
		}
		msgs := merge(req)
		all = append(all, msgs...)
		pub, err := timed(func() error {
			for _, m := range msgs {
				if err := bus.Publish(m); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		graft(spans, frames[i], []part{{"api.decode", dec}, {"journal.append", app}, {"mavbus.publish", pub}})
		if !fleet {
			continue
		}
		ja, err := json.Marshal(api.JournalAppend{SchemaVersion: api.Version, Seq: i + 1, Request: open, Chunk: req})
		if err != nil {
			return err
		}
		var got api.JournalAppend
		fdec, err := timed(func() error { return api.DecodeStrict(bytes.NewReader(ja), &got) })
		if err != nil {
			return err
		}
		fapp, err := timed(func() error { return fj.AppendChunk(got.Chunk) })
		if err != nil {
			return err
		}
		graft(spans, appends[i], []part{{"api.decode", fdec}, {"journal.append", fapp}})
	}
	finish()
	if res.err != nil {
		return res.err
	}
	if d := bus.Dropped(); d > 0 {
		return fmt.Errorf("replay %s: bus dropped %d message(s)", s.name, d)
	}
	engine, err := engineBusy(r.l, p, s.name, all, res.rep)
	if err != nil {
		return err
	}
	k.engine += engine
	var raw []byte
	enc, err := timed(func() error {
		var err error
		raw, err = json.Marshal(api.ReportFromCore(res.rep))
		return err
	})
	if err != nil {
		return err
	}
	if err := r.check(s, p, raw); err != nil {
		return err
	}
	graft(spans, reports[0], []part{{"api.report_encode", enc}})
	return nil
}

// engineBusy times stream.Engine.Run over the whole flight already
// queued on its bus, so the span is the engine's own work rather than
// its wait for the next chunk, and checks it reaches the same report.
func engineBusy(l *lab, p *poolFlight, name string, msgs []mavbus.Message, want soundboost.Report) (float64, error) {
	eng, err := stream.New(l.an, p.rate, stream.WithFlightName(name), stream.WithBuffer(pushBuffer))
	if err != nil {
		return 0, err
	}
	bus := mavbus.NewBus(0)
	if err := eng.Attach(bus); err != nil {
		return 0, err
	}
	for _, m := range msgs {
		if err := bus.Publish(m); err != nil {
			return 0, err
		}
	}
	bus.Close()
	var rep soundboost.Report
	dur, err := timed(func() error {
		var err error
		rep, err = eng.Run(context.Background())
		return err
	})
	if err != nil {
		return 0, err
	}
	if bus.Dropped() > 0 || rep != want {
		return 0, fmt.Errorf("replay %s: engine over a queued flight dropped %d message(s) or changed its verdict",
			name, bus.Dropped())
	}
	return dur, nil
}

// merge orders one request's events as the server publishes them (its
// own merge is unexported): by timestamp, stable, audio before IMU before
// GPS at equal times, audio frames stamped at their last sample.
func merge(req api.FramesRequest) []mavbus.Message {
	msgs := make([]mavbus.Message, 0, len(req.Audio)+len(req.IMU)+len(req.GPS))
	for _, f := range req.Audio {
		frame := f.ToStream()
		endT := frame.Start
		if frame.Rate > 0 && len(frame.Samples) > 0 {
			endT += float64(len(frame.Samples[0])) / frame.Rate
		}
		msgs = append(msgs, mavbus.Message{Topic: stream.TopicAudio, Time: endT, Payload: frame})
	}
	for _, smp := range req.IMU {
		imu := smp.ToStream()
		msgs = append(msgs, mavbus.Message{Topic: stream.TopicIMU, Time: imu.Time, Payload: imu})
	}
	for _, smp := range req.GPS {
		gps := smp.ToStream()
		msgs = append(msgs, mavbus.Message{Topic: stream.TopicGPS, Time: gps.Time, Payload: gps})
	}
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].Time < msgs[j].Time })
	return msgs
}

// batch replays handleFlights: .sbf load, analysis (with the detector
// stages timed on their own when triage escalates), and the report
// encode; then the signature and inference kernels of escalated
// flights.
func (r *replayer) batch(spans *[]Span, idx []int, s *session, p *poolFlight, k *kernels) error {
	uploads := byName(*spans, idx, "server.flights")
	if len(uploads) != 1 {
		return fmt.Errorf("replay %s: %d flights spans", s.name, len(uploads))
	}
	an := r.l.an
	body := p.body(s.name)
	var f *dataset.Flight
	load, err := timed(func() error {
		var err error
		f, err = dataset.Load(bytes.NewReader(body))
		return err
	})
	if err != nil {
		return err
	}
	var rep soundboost.Report
	analyze, err := timed(func() error {
		var err error
		rep, err = an.Analyze(f)
		return err
	})
	if err != nil {
		return err
	}
	var stages []part
	escalated := rep != soundboost.FastBenignReport(f.Name, an)
	if escalated {
		var v soundboost.IMUVerdict
		imu, err := timed(func() error {
			var err error
			v, err = an.IMU.Detect(f)
			return err
		})
		if err != nil {
			return err
		}
		gpsDet := an.GPSAudioIMU
		if v.Attacked {
			gpsDet = an.GPSAudioOnly
		}
		gps, err := timed(func() error {
			_, err := gpsDet.Detect(f)
			return err
		})
		if err != nil {
			return err
		}
		stages = []part{{"core.imu_detect", imu}, {"core.gps_detect", gps}}
	}
	var raw []byte
	enc, err := timed(func() error {
		var err error
		raw, err = json.Marshal(api.ReportFromCore(rep))
		return err
	})
	if err != nil {
		return err
	}
	if err := r.check(s, p, raw); err != nil {
		return err
	}
	at := graft(spans, uploads[0], []part{{"dataset.load", load}, {"core.analyze", analyze}, {"api.report_encode", enc}})
	graft(spans, at[1], stages)
	if !escalated {
		return nil
	}
	var windows []soundboost.WindowSample
	sig, err := timed(func() error {
		var err error
		windows, err = soundboost.BuildWindows(f, an.Model.Config().Signature, 0, 1)
		return err
	})
	if err != nil {
		return err
	}
	pred, _ := timed(func() error {
		for _, w := range windows {
			an.Model.Predict(w.Features)
		}
		return nil
	})
	k.signature += sig
	k.predict += pred
	return nil
}

// check compares a replayed report with the reference.
func (r *replayer) check(s *session, p *poolFlight, raw []byte) error {
	want, err := p.want(s.name)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, want) {
		return fmt.Errorf("replay %s: report differs from reference:\n got %s\nwant %s", s.name, raw, want)
	}
	return nil
}
