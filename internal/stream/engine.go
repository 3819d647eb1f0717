package stream

import (
	"context"
	"fmt"
	"math"
	"sync"

	"soundboost/internal/acoustics"
	"soundboost/internal/chaos"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dsp"
	"soundboost/internal/faults"
	"soundboost/internal/kalman"
	"soundboost/internal/mathx"
	"soundboost/internal/mavbus"
	"soundboost/internal/triage"
)

// maxGapFillSeconds caps how much audio silence a single timestamp jump
// may inject: a frame claiming to start further ahead than this is
// treated as malformed rather than allocated as a gap, so one corrupt
// timestamp cannot balloon the ring buffer.
const maxGapFillSeconds = 30

// maxTelemetryBuffer caps the per-stream telemetry backlog retained while
// windows cannot advance (e.g. the audio feed stalled). Past it the
// oldest samples are evicted and counted.
const maxTelemetryBuffer = 1 << 17

// maxFastpathBacklogWindows caps how many screened windows the triage
// fast path may retain for a potential escalation replay before memory
// wins over speed: past it the engine escalates (runs the backlog
// through the full pipeline) purely to release the buffers. At the
// default 0.25 s hop this is ~4 minutes of stream — far beyond the
// flights the service sees, so real streams fast-path end to end.
const maxFastpathBacklogWindows = 1 << 10

// sampleRange is a half-open range [start, end) of absolute sample
// indices whose content is gap-filled or otherwise untrustworthy.
type sampleRange struct{ start, end int }

// Status is a point-in-time snapshot of the engine for live display.
type Status struct {
	// LastWindowEnd is the end time (s) of the newest processed window.
	LastWindowEnd float64
	// Windows counts fully processed windows; Skipped counts windows
	// dropped for gaps, starvation, or rejection.
	Windows int
	Skipped int
	// IMUAttacked and GPSAttacked are the verdicts so far (GPS per the
	// currently active KF variant).
	IMUAttacked bool
	GPSAttacked bool
	// ActiveMode is the KF variant currently trusted for the GPS verdict
	// — it switches from audio+IMU to audio-only the moment the IMU
	// verdict flips to attacked.
	ActiveMode kalman.Mode
	// RunningError and PeakError expose the active GPS monitor state.
	RunningError float64
	PeakError    float64
	Threshold    float64
}

// Engine is the online RCA engine. It consumes AudioFrame, IMUSample,
// and GPSSample messages from a mavbus and incrementally runs the same
// calibrated two-stage analysis as Analyzer.Analyze; on a clean, ordered,
// lossless stream the final Report is equivalent to the batch one.
//
// Typical use:
//
//	eng, _ := stream.New(analyzer, rate)
//	eng.Attach(bus)
//	go func() { stream.Replay(ctx, bus, flight, rcfg); bus.Close() }()
//	report, err := eng.Run(ctx)
//
// Attach must happen before the first Publish or early messages are
// missed (the bus does not replay into live subscriptions).
type Engine struct {
	an   *soundboost.Analyzer
	cfg  config
	sig  soundboost.SignatureConfig
	rate float64

	subAudio *mavbus.Subscription
	subIMU   *mavbus.Subscription
	subGPS   *mavbus.Subscription

	// Audio ring: filtered samples [base, written) per mic, plus the
	// invalid (gap-filled / non-finite) ranges still overlapping it.
	filters [acoustics.NumMics]*dsp.Biquad
	buf     [acoustics.NumMics][]float64
	base    int
	written int
	invalid []sampleRange

	// Telemetry buffers, time-sorted, with high-water marks. done flags
	// flip when the corresponding bus channel closes.
	imuBuf   []IMUSample
	gpsBuf   []GPSSample
	imuWM    float64
	gpsWM    float64
	imuDone  bool
	gpsDone  bool
	imuEvict int
	gpsEvict int

	// nextWin is the index of the next unprocessed signature window
	// (start time nextWin*HopSeconds, exactly as batch WindowStarts).
	nextWin int

	// Triage fast path. While active (tri non-nil and not escalated),
	// ready windows are screened by the cheap tier instead of running the
	// full pipeline, and every full-pipeline input from window triFullWin
	// onward is retained so that any doubt can escalate by replaying the
	// screened backlog — reproducing, bit for bit, the engine state the
	// full pipeline would have reached. Escalation is permanent for the
	// stream; a stream that never escalates finalizes with the cheap
	// path-independent benign report.
	tri          *triage.Model
	triFullWin   int
	triEscalated bool

	// run is the flight's pass through the core RCA pipeline, fed window
	// by window; its GPS stage starts at the first finite GPS fix.
	run *soundboost.Run

	mu     sync.Mutex
	status Status
}

// ErrNotAttached is returned by Run when the engine was never attached
// to a bus. It aliases faults.ErrEngineDetached, the repository-wide
// error set, so errors.Is matches under either name.
var ErrNotAttached = faults.ErrEngineDetached

// New builds an engine around a calibrated analyzer for streams at the
// given audio sample rate, configured by functional options:
//
//	eng, err := stream.New(analyzer, rate,
//		stream.WithBuffer(1<<14),
//		stream.WithLagHorizon(5),
//		stream.WithFlightName("incident-17"))
func New(an *soundboost.Analyzer, sampleRate float64, opts ...Option) (*Engine, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	return newEngine(an, sampleRate, cfg)
}

func newEngine(an *soundboost.Analyzer, sampleRate float64, cfg config) (*Engine, error) {
	run, err := an.NewRun()
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	sig := an.Model.Config().Signature
	if err := sig.ValidateForRate(sampleRate); err != nil {
		return nil, err
	}
	e := &Engine{
		an:    an,
		cfg:   cfg.withDefaults(),
		sig:   sig,
		rate:  sampleRate,
		imuWM: math.Inf(-1),
		gpsWM: math.Inf(-1),
		tri:   an.Triage,
		run:   run,
	}
	// Mirror NewExtractor's per-channel low-pass: a causal biquad fed
	// sample by sample is bit-identical to the batch ProcessAll.
	if sig.LowPassHz > 0 && sig.LowPassHz < sampleRate/2 {
		for m := range e.filters {
			lp, err := dsp.NewLowPass(sig.LowPassHz, sampleRate)
			if err != nil {
				return nil, fmt.Errorf("stream: low-pass: %w", err)
			}
			e.filters[m] = lp
		}
	}
	e.setRunStatus(run.Status())
	return e, nil
}

// Attach subscribes the engine to its topics on the bus. It must be
// called before publishing begins and before Run.
func (e *Engine) Attach(bus *mavbus.Bus) error {
	var err error
	if e.subAudio, err = bus.Subscribe(TopicAudio, e.cfg.Buffer); err != nil {
		return err
	}
	if e.subIMU, err = bus.Subscribe(TopicIMU, e.cfg.Buffer); err != nil {
		return err
	}
	if e.subGPS, err = bus.Subscribe(TopicGPS, e.cfg.Buffer); err != nil {
		return err
	}
	return nil
}

// Run consumes the attached subscriptions until all three channels close
// (bus closed) or the context is cancelled, then flushes the remaining
// ready windows and returns the final report. A context cancellation
// still returns the best-effort report alongside ctx.Err().
func (e *Engine) Run(ctx context.Context) (soundboost.Report, error) {
	if e.subAudio == nil || e.subIMU == nil || e.subGPS == nil {
		return soundboost.Report{}, ErrNotAttached
	}
	audioC, imuC, gpsC := e.subAudio.C, e.subIMU.C, e.subGPS.C
	for audioC != nil || imuC != nil || gpsC != nil {
		// Block for at least one message (or closure, or cancellation).
		select {
		case <-ctx.Done():
			e.cancelSubs()
			e.advance(true)
			report, _ := e.finalize()
			return report, ctx.Err()
		case m, ok := <-audioC:
			e.dispatchAudio(m, ok, &audioC)
		case m, ok := <-imuC:
			e.dispatchIMU(m, ok, &imuC)
		case m, ok := <-gpsC:
			e.dispatchGPS(m, ok, &gpsC)
		}
		// Drain everything already queued before judging window
		// readiness: a bursty publisher delivers the three streams at
		// very different message rates, and deciding starvation while
		// telemetry sits unread in its channel would skip healthy
		// windows.
		for drained := true; drained; {
			drained = false
			if audioC != nil {
				select {
				case m, ok := <-audioC:
					e.dispatchAudio(m, ok, &audioC)
					drained = true
				default:
				}
			}
			if imuC != nil {
				select {
				case m, ok := <-imuC:
					e.dispatchIMU(m, ok, &imuC)
					drained = true
				default:
				}
			}
			if gpsC != nil {
				select {
				case m, ok := <-gpsC:
					e.dispatchGPS(m, ok, &gpsC)
					drained = true
				default:
				}
			}
		}
		e.advance(false)
	}
	e.advance(true)
	return e.finalize()
}

// checkPoison treats a chaos.PoisonPill payload as an engine-integrity
// fault and panics. This is the deliberate crash-test trigger for the
// fault-injection harness: the panic must be contained by the engine's
// owner (the server's per-session isolation domain), never by the engine
// itself — swallowing it here would hide exactly the failure the soak
// exists to exercise.
func checkPoison(m mavbus.Message) {
	if _, bad := m.Payload.(chaos.PoisonPill); bad {
		panic(fmt.Sprintf("stream: poison pill on %q at t=%.3f", m.Topic, m.Time))
	}
}

func (e *Engine) dispatchAudio(m mavbus.Message, ok bool, c *<-chan mavbus.Message) {
	if !ok {
		*c = nil
		return
	}
	checkPoison(m)
	if f, good := m.Payload.(AudioFrame); good {
		e.onAudio(f)
	}
}

func (e *Engine) dispatchIMU(m mavbus.Message, ok bool, c *<-chan mavbus.Message) {
	if !ok {
		*c = nil
		e.imuDone = true
		return
	}
	checkPoison(m)
	if s, good := m.Payload.(IMUSample); good {
		e.onIMU(s)
	}
}

func (e *Engine) dispatchGPS(m mavbus.Message, ok bool, c *<-chan mavbus.Message) {
	if !ok {
		*c = nil
		e.gpsDone = true
		return
	}
	checkPoison(m)
	if s, good := m.Payload.(GPSSample); good {
		e.onGPS(s)
	}
}

// cancelSubs detaches all subscriptions (used on context cancellation).
func (e *Engine) cancelSubs() {
	e.subAudio.Cancel()
	e.subIMU.Cancel()
	e.subGPS.Cancel()
}

// Close detaches the engine from its bus by cancelling its
// subscriptions. A concurrent Run drains what is already queued, flushes
// the remaining ready windows, and returns its final report — this is
// how an owner (a server session, a supervisor) ends a stream without
// closing a bus other consumers may share. Close is idempotent and a
// no-op on a never-attached engine; Attach must have completed
// (happened-before) for Close to observe the subscriptions.
func (e *Engine) Close() {
	if e.subAudio != nil {
		e.subAudio.Cancel()
	}
	if e.subIMU != nil {
		e.subIMU.Cancel()
	}
	if e.subGPS != nil {
		e.subGPS.Cancel()
	}
}

// Status returns a snapshot of the engine state for live display. It is
// safe to call concurrently with Run.
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// onAudio ingests one audio frame: out-of-order overlap is trimmed,
// gaps are zero-filled through the filters (preserving window timing)
// and marked invalid, non-finite samples are zeroed and marked invalid.
func (e *Engine) onAudio(f AudioFrame) {
	framesTotal.Inc()
	if len(f.Samples) != acoustics.NumMics || len(f.Samples[0]) == 0 || f.Rate != e.rate {
		framesMalformed.Inc()
		return
	}
	n := len(f.Samples[0])
	for _, ch := range f.Samples[1:] {
		if len(ch) != n {
			framesMalformed.Inc()
			return
		}
	}
	if math.IsNaN(f.Start) || math.IsInf(f.Start, 0) || f.Start < 0 {
		framesMalformed.Inc()
		return
	}
	startIdx := int(math.Round(f.Start * e.rate))
	skip := 0
	if startIdx < e.written {
		// Duplicate or late frame: drop the part already ingested.
		framesOutOfOrder.Inc()
		skip = e.written - startIdx
		if skip >= n {
			return
		}
	} else if gap := startIdx - e.written; gap > 0 {
		if float64(gap)/e.rate > maxGapFillSeconds {
			framesMalformed.Inc()
			return
		}
		// Dropout: zero-fill through the filters so later windows keep
		// their absolute timing, and mark the span untrustworthy.
		e.invalid = append(e.invalid, sampleRange{e.written, startIdx})
		gapSamplesFilled.Add(int64(gap))
		for i := 0; i < gap; i++ {
			for m := range e.buf {
				e.buf[m] = append(e.buf[m], e.filterSample(m, 0))
			}
		}
		e.written = startIdx
	}
	for i := skip; i < n; i++ {
		finite := true
		for m := 0; m < acoustics.NumMics; m++ {
			v := f.Samples[m][i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
		}
		if !finite {
			nonFiniteSamples.Inc()
			e.markInvalid(e.written, e.written+1)
		}
		for m := range e.buf {
			v := f.Samples[m][i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			e.buf[m] = append(e.buf[m], e.filterSample(m, v))
		}
		e.written++
	}
	audioBufferGauge.Set(float64(e.written-e.base) / e.rate)
}

func (e *Engine) filterSample(m int, v float64) float64 {
	if e.filters[m] != nil {
		return e.filters[m].Process(v)
	}
	return v
}

// markInvalid records [start, end) as untrustworthy, merging with a
// directly adjacent previous range.
func (e *Engine) markInvalid(start, end int) {
	if n := len(e.invalid); n > 0 && e.invalid[n-1].end == start {
		e.invalid[n-1].end = end
		return
	}
	e.invalid = append(e.invalid, sampleRange{start, end})
}

// onIMU ingests one IMU row: NaN rows are shed, out-of-order rows are
// sorted in if their window is still pending and dropped otherwise.
func (e *Engine) onIMU(s IMUSample) {
	telemetryIMU.Inc()
	if !soundboost.FiniteIMURow(s.Time, s.Accel, s.Att) {
		telemetryNaN.Inc()
		return
	}
	if s.Time >= e.imuWM {
		e.imuBuf = append(e.imuBuf, s)
		e.imuWM = s.Time
	} else {
		telemetryReordered.Inc()
		if s.Time < float64(e.nextWin)*e.sig.HopSeconds {
			return // its windows were already decided
		}
		i := len(e.imuBuf)
		for i > 0 && e.imuBuf[i-1].Time > s.Time {
			i--
		}
		e.imuBuf = append(e.imuBuf, IMUSample{})
		copy(e.imuBuf[i+1:], e.imuBuf[i:])
		e.imuBuf[i] = s
	}
	if len(e.imuBuf) > maxTelemetryBuffer {
		// Evicting a row the escalation replay might need would break
		// replay exactness: leave the fast path first (which prunes the
		// backlog), then evict only if the buffer is still over.
		e.escalate()
		if len(e.imuBuf) > maxTelemetryBuffer {
			e.imuBuf = e.imuBuf[1:]
			e.imuEvict++
			telemetryEvicted.Inc()
		}
	}
}

// onGPS ingests one GPS fix; the first finite fix seeds both KF variants
// (the batch pipeline's v0 = Telemetry[0].GPSVel).
func (e *Engine) onGPS(s GPSSample) {
	telemetryGPS.Inc()
	if !soundboost.FiniteGPSRow(s.Time, s.Pos, s.Vel) {
		telemetryNaN.Inc()
		return
	}
	e.run.StartGPS(s.Vel)
	if s.Time >= e.gpsWM {
		e.gpsBuf = append(e.gpsBuf, s)
		e.gpsWM = s.Time
	} else {
		telemetryReordered.Inc()
		if s.Time < float64(e.nextWin)*e.sig.HopSeconds {
			return
		}
		i := len(e.gpsBuf)
		for i > 0 && e.gpsBuf[i-1].Time > s.Time {
			i--
		}
		e.gpsBuf = append(e.gpsBuf, GPSSample{})
		copy(e.gpsBuf[i+1:], e.gpsBuf[i:])
		e.gpsBuf[i] = s
	}
	if len(e.gpsBuf) > maxTelemetryBuffer {
		e.escalate()
		if len(e.gpsBuf) > maxTelemetryBuffer {
			e.gpsBuf = e.gpsBuf[1:]
			e.gpsEvict++
			telemetryEvicted.Inc()
		}
	}
}

// advance processes every window that has become decidable. A window is
// audio-ready under exactly the batch predicate (its samples are all
// written AND t0+window fits the duration streamed so far) and
// telemetry-ready when both telemetry watermarks passed its end (or the
// stream closed). flush forces pending audio-ready windows through with
// whatever telemetry arrived — used at end of stream, where the buffers
// hold everything that will ever arrive.
func (e *Engine) advance(flush bool) {
	win := e.sig.WindowSeconds
	hop := e.sig.HopSeconds
	total := int(win * e.rate)
	for {
		t0 := float64(e.nextWin) * hop
		start := int(t0 * e.rate)
		endT := t0 + win
		if start+total > e.written || endT > float64(e.written)/e.rate {
			break // audio not complete for this window yet (or ever)
		}
		if !flush {
			telReady := (e.imuDone || e.imuWM >= endT) && (e.gpsDone || e.gpsWM >= endT)
			if !telReady {
				lag := float64(e.written)/e.rate - endT
				lagGauge.Set(lag)
				if lag <= e.cfg.MaxLagSeconds {
					break // wait for telemetry to catch up
				}
				// Telemetry starved beyond the horizon: skip the window
				// so the audio ring stays bounded. Starvation is doubt —
				// the fast path hands the stream to the full pipeline
				// first so the skip happens in full-pipeline state.
				e.escalate()
				windowsStarved.Inc()
				e.bumpSkipped()
				e.nextWin++
				e.prune()
				continue
			}
		}
		if e.fastpath() {
			if e.nextWin-e.triFullWin < maxFastpathBacklogWindows && e.screenWindow(t0, start, total) {
				windowsScreened.Inc()
				e.mu.Lock()
				e.status.Windows++
				e.status.LastWindowEnd = endT
				e.mu.Unlock()
				e.nextWin++
				e.prune()
				continue
			}
			// Doubt (or backlog bound): replay the screened backlog
			// through the full pipeline, then process this window there.
			e.escalate()
		}
		e.processWindow(e.nextWin, t0, start, total)
		e.nextWin++
		e.prune()
	}
}

// fastpath reports whether the triage screening tier is deciding
// windows (attached and not yet escalated).
func (e *Engine) fastpath() bool { return e.tri != nil && !e.triEscalated }

// screenWindow runs the triage tier over one ready window; false means
// the window — and with it the stream — must escalate. Every condition
// the full pipeline treats specially (a failed KF seeding, dropout
// overlap, missing IMU rows, unusable features) is doubt.
func (e *Engine) screenWindow(t0 float64, start, total int) bool {
	if e.run.Err() != nil || e.overlapsInvalid(start, start+total) {
		return false
	}
	endT := t0 + e.sig.WindowSeconds
	imuWin := e.imuWindow(t0, endT)
	if len(imuWin) == 0 {
		return false
	}
	gpsWin := e.gpsWindow(t0, endT)
	imu := make([]triage.IMUPoint, len(imuWin))
	for i, s := range imuWin {
		imu[i] = triage.IMUPoint{Accel: s.Accel, Gyro: s.Gyro}
	}
	gps := make([]triage.GPSPoint, len(gpsWin))
	for i, s := range gpsWin {
		gps[i] = triage.GPSPoint{Time: s.Time, Pos: s.Pos, Vel: s.Vel}
	}
	off := start - e.base
	feat := soundboost.TriageFeatures(e.sig, e.tri.Config().Features, e.buf[0][off:off+total], e.rate, imu, gps)
	return e.tri.Classify(feat).Benign
}

// escalate permanently abandons the fast path: every screened window is
// replayed through the full pipeline from the retained buffers. The
// screened backlog is frozen — late telemetry for decided windows is
// rejected at ingest and dropout ranges only ever grow at the write
// head — so the replay reproduces exactly the state the full pipeline
// would have reached had it run from the start. A no-op once escalated
// or when no tier is attached.
func (e *Engine) escalate() {
	if !e.fastpath() {
		return
	}
	e.triEscalated = true
	triageEscalations.Inc()
	total := int(e.sig.WindowSeconds * e.rate)
	for w := e.triFullWin; w < e.nextWin; w++ {
		t0 := float64(w) * e.sig.HopSeconds
		e.processWindow(w, t0, int(t0*e.rate), total)
	}
	e.triFullWin = e.nextWin
	e.prune()
}

// processWindow feeds one signature window (index winIdx, start time t0)
// to the run. Live processing passes winIdx = e.nextWin; an escalation
// replay passes the historical index.
func (e *Engine) processWindow(winIdx int, t0 float64, start, total int) {
	endT := t0 + e.sig.WindowSeconds
	if !e.cfg.GapFill && e.overlapsInvalid(start, start+total) {
		windowsSkippedGap.Inc()
		e.bumpSkipped()
		return
	}
	span := featureTimer.Start()
	var chans [acoustics.NumMics][]float64
	off := start - e.base
	for m := range chans {
		chans[m] = e.buf[m][off : off+total]
	}
	feat := e.sig.AcousticWindow(chans, e.rate)
	span.Stop()
	if feat == nil {
		windowsRejected.Inc()
		e.bumpSkipped()
		return
	}
	imuWin := e.imuWindow(t0, endT)
	if len(imuWin) == 0 {
		// The batch pipeline skips telemetry-less windows in both stages.
		windowsRejected.Inc()
		e.bumpSkipped()
		return
	}
	if e.sig.AttitudeFeatures {
		feat = soundboost.AppendAttitude(feat, imuWin, func(s IMUSample) mathx.Quat { return s.Att })
	}
	pred := e.an.Model.Predict(feat)
	accel := make([]mathx.Vec3, len(imuWin))
	for i, s := range imuWin {
		accel[i] = s.Accel
	}
	gpsWin := e.gpsWindow(t0, endT)
	gpsVel := make([]mathx.Vec3, len(gpsWin))
	for i, s := range gpsWin {
		gpsVel[i] = s.Vel
	}
	o := soundboost.ObserveWindow(t0, e.sig.WindowSeconds, pred, imuWin[len(imuWin)/2].Att, accel, gpsVel)

	span = detectTimer.Start()
	e.run.Add(winIdx, o)
	span.Stop()
	windowsEmitted.Inc()

	rs := e.run.Status()
	e.mu.Lock()
	e.status.Windows++
	e.status.LastWindowEnd = endT
	e.setRunStatus(rs)
	e.mu.Unlock()
}

// setRunStatus copies the run's live verdict state into the status
// snapshot. The caller holds e.mu (or owns the engine exclusively).
func (e *Engine) setRunStatus(rs soundboost.RunStatus) {
	e.status.IMUAttacked, e.status.GPSAttacked = rs.IMUAttacked, rs.GPSAttacked
	e.status.ActiveMode, e.status.Threshold = rs.ActiveMode, rs.Threshold
	e.status.RunningError, e.status.PeakError = rs.RunningError, rs.PeakError
}

func (e *Engine) bumpSkipped() {
	e.mu.Lock()
	e.status.Skipped++
	e.mu.Unlock()
}

// imuWindow returns the buffered IMU samples with time in [t0, t1) —
// the same half-open interval as dataset.Flight.TelemetryBetween.
func (e *Engine) imuWindow(t0, t1 float64) []IMUSample {
	var out []IMUSample
	for _, s := range e.imuBuf {
		if s.Time >= t1 {
			break
		}
		if s.Time >= t0 {
			out = append(out, s)
		}
	}
	return out
}

func (e *Engine) gpsWindow(t0, t1 float64) []GPSSample {
	var out []GPSSample
	for _, s := range e.gpsBuf {
		if s.Time >= t1 {
			break
		}
		if s.Time >= t0 {
			out = append(out, s)
		}
	}
	return out
}

// overlapsInvalid reports whether [start, end) intersects a gap-filled or
// non-finite sample range.
func (e *Engine) overlapsInvalid(start, end int) bool {
	for _, r := range e.invalid {
		if r.start < end && start < r.end {
			return true
		}
	}
	return false
}

// prune discards buffered audio and telemetry no window can need again:
// everything strictly before the next window's start — or, while the
// triage fast path is active, before the first window the full pipeline
// has not consumed, since an escalation replay needs the screened
// backlog intact. This (plus the starvation skip in advance and the
// fast-path backlog bound) is what bounds engine memory.
func (e *Engine) prune() {
	pruneWin := e.nextWin
	if e.fastpath() && e.triFullWin < pruneWin {
		pruneWin = e.triFullWin
	}
	t0 := float64(pruneWin) * e.sig.HopSeconds
	newBase := int(t0 * e.rate)
	if cut := newBase - e.base; cut > 0 {
		for m := range e.buf {
			e.buf[m] = append(e.buf[m][:0:0], e.buf[m][cut:]...)
		}
		e.base = newBase
	}
	keep := e.invalid[:0]
	for _, r := range e.invalid {
		if r.end > e.base {
			keep = append(keep, r)
		}
	}
	e.invalid = keep
	cutIMU := 0
	for cutIMU < len(e.imuBuf) && e.imuBuf[cutIMU].Time < t0 {
		cutIMU++
	}
	if cutIMU > 0 {
		e.imuBuf = append(e.imuBuf[:0:0], e.imuBuf[cutIMU:]...)
	}
	cutGPS := 0
	for cutGPS < len(e.gpsBuf) && e.gpsBuf[cutGPS].Time < t0 {
		cutGPS++
	}
	if cutGPS > 0 {
		e.gpsBuf = append(e.gpsBuf[:0:0], e.gpsBuf[cutGPS:]...)
	}
}

// finalize finishes the run. A stream that screened at least one window
// and never escalated finalizes with the cheap path-independent benign
// report; a zero-window or doubtful fast-path stream escalates first so
// the report matches the triage-disabled engine exactly.
func (e *Engine) finalize() (soundboost.Report, error) {
	if e.fastpath() {
		if e.run.Err() == nil && e.nextWin > e.triFullWin {
			triageFastReports.Inc()
			return soundboost.FastBenignReport(e.cfg.FlightName, e.an), nil
		}
		e.escalate()
	}
	report, err := e.run.Finish(e.cfg.FlightName)
	rs := e.run.Status()
	e.mu.Lock()
	e.setRunStatus(rs)
	e.mu.Unlock()
	return report, err
}
