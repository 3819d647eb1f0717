package server

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"soundboost/api"
	"soundboost/internal/chaos"
	soundboost "soundboost/internal/core"
	"soundboost/internal/faults"
	"soundboost/internal/journal"
	"soundboost/internal/mavbus"
	"soundboost/internal/stream"
)

// session is one live (or recently finished) streaming RCA run: a
// private mavbus carrying the client's telemetry into a dedicated
// engine. Lifecycle: open (accepting frames) → draining (end-of-stream
// seen, engine flushing) → done (final report held until eviction), or
// → failed if the engine dies (the failure domain is this one session —
// see DESIGN.md "Failure domains & recovery").
type session struct {
	id      string
	flight  string
	bus     *mavbus.Bus
	eng     *stream.Engine // nil for sessions recovered in a terminal state
	created time.Time
	req     api.SessionRequest

	// pub is the bus publish path, possibly wrapped by a chaos injector.
	pub chaos.PubFunc
	inj *chaos.Injector  // nil unless Config.SessionInjector supplied one
	sj  *journal.Session // nil unless journaling is enabled

	// done closes when the engine goroutine has stored its report (or the
	// session was recovered directly into a terminal state).
	done chan struct{}

	// logf receives lifecycle lines (the server's Config.Logf; never nil).
	logf func(format string, a ...any)

	// pubMu serializes frame publication so sequence-number bookkeeping
	// and the write-ahead journal see chunks in one total order.
	pubMu sync.Mutex

	// metaMu orders journal meta writes: every write snapshots and
	// persists under it, and the terminal transition persists and then
	// publishes under it, so a concurrent checkpoint can never overwrite
	// the terminal meta with an older state.
	metaMu sync.Mutex

	mu        sync.Mutex
	state     string
	lastTouch time.Time
	lastSeq   int
	failCause string
	report    soundboost.Report
	runErr    error
}

// run consumes the session's bus until it closes, then records the
// final verdict. It is the session's only long-lived goroutine, and the
// session's panic isolation domain: a panicking engine (poison pill,
// corrupted state, a bug) marks this one session failed with its cause
// recorded — the process, and every other session, keeps running.
func (s *session) run() {
	defer func() {
		if p := recover(); p != nil {
			sessionsPanicked.Inc()
			cause := fmt.Sprintf("engine panic: %v", p)
			s.finish(api.SessionFailed, cause, soundboost.Report{}, fmt.Errorf("%w: %s", faults.ErrSessionFailed, cause))
			// The engine goroutine is gone; close the bus so publishers
			// get ErrBusClosed instead of filling a dead queue. Keep the
			// stack out of the HTTP response but not out of the log.
			s.bus.Close()
			close(s.done)
			s.logf("session %s failed: %s\n%s", s.id, cause, debug.Stack())
		}
	}()
	report, err := s.eng.Run(context.Background())
	s.finish(api.SessionDone, "", report, err)
	close(s.done)
}

// finish moves the session into its terminal state durably first: the
// terminal meta (with the report) is built from the given values and
// written before any client can observe the state or read the report.
// Only then is the state published; the caller closes done after.
func (s *session) finish(state, failCause string, report soundboost.Report, runErr error) {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if s.sj != nil {
		s.writeMeta(state, failCause, report, runErr)
	}
	s.mu.Lock()
	s.state, s.failCause, s.report, s.runErr = state, failCause, report, runErr
	s.mu.Unlock()
}

// persistMeta snapshots the session into its journal (no-op when
// journaling is off). Called on every lifecycle transition and by the
// janitor as a periodic checkpoint.
func (s *session) persistMeta() {
	if s.sj == nil {
		return
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	s.mu.Lock()
	state, failCause, report, runErr := s.state, s.failCause, s.report, s.runErr
	s.mu.Unlock()
	s.writeMeta(state, failCause, report, runErr)
}

// writeMeta persists one meta snapshot of the session in the given
// state; the caller holds metaMu.
func (s *session) writeMeta(state, failCause string, report soundboost.Report, runErr error) {
	s.mu.Lock()
	meta := journal.Meta{
		ID:        s.id,
		Req:       s.req,
		State:     state,
		LastSeq:   s.lastSeq,
		FailCause: failCause,
	}
	s.mu.Unlock()
	if state == api.SessionDone && runErr == nil {
		r := api.ReportFromCore(report)
		meta.Report = &r
	}
	if s.eng != nil {
		meta.Engine = api.EngineStatusFromStream(s.eng.Status())
	}
	_ = s.sj.WriteMeta(meta)
}

// touch refreshes the idle clock (frame activity only — status polls do
// not keep a session alive).
func (s *session) touch(now time.Time) {
	s.mu.Lock()
	s.lastTouch = now
	s.mu.Unlock()
}

// closeStream ends the session's input stream: open → draining, bus
// closed so the engine flushes and finalizes. Idempotent; reports
// whether this call performed the transition.
func (s *session) closeStream() bool {
	s.mu.Lock()
	if s.state != api.SessionOpen {
		s.mu.Unlock()
		return false
	}
	s.state = api.SessionDraining
	s.mu.Unlock()
	if s.inj != nil {
		// Release any message the schedule held back for reordering
		// before end-of-stream reaches the engine.
		_ = s.inj.Flush(s.bus.Publish)
	}
	s.bus.Close()
	if s.sj != nil {
		s.sj.CloseChunks()
	}
	s.persistMeta()
	return true
}

// snapshot returns the session's wire status.
func (s *session) snapshot(now time.Time) api.SessionStatus {
	s.mu.Lock()
	state := s.state
	last := s.lastTouch
	lastSeq := s.lastSeq
	failCause := s.failCause
	s.mu.Unlock()
	st := api.SessionStatus{
		SchemaVersion: api.Version,
		ID:            s.id,
		Flight:        s.flight,
		State:         state,
		AgeSeconds:    now.Sub(s.created).Seconds(),
		IdleSeconds:   now.Sub(last).Seconds(),
		Shed:          s.bus.Dropped(),
		LastSeq:       lastSeq,
		FailCause:     failCause,
	}
	if s.eng != nil {
		st.Engine = api.EngineStatusFromStream(s.eng.Status())
	}
	return st
}

// publish feeds one FramesRequest into the session bus. The three
// streams are merged by timestamp — stable, audio appended before IMU
// before GPS at equal times — exactly mirroring stream.Replay's event
// ordering so a chunked upload reproduces the batch verdict.
//
// When the request carries a sequence number (Seq > 0) publication is
// idempotent: a chunk at or below the accepted high-water mark is
// acknowledged without re-publishing (duplicate=true) so a client that
// lost an ack can blindly resend, and a chunk that skips ahead is
// rejected with faults.ErrSeqGap. With journaling on, an accepted chunk
// is fsynced to the write-ahead log before it reaches the bus: body, the
// bytes req was decoded from, is what the log stores (journal.AppendBody
// takes it over). Recovery replays with journaling detached and passes
// no body.
func (s *session) publish(req api.FramesRequest, body []byte) (accepted int, duplicate bool, err error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if req.Seq > 0 {
		s.mu.Lock()
		last := s.lastSeq
		s.mu.Unlock()
		if req.Seq <= last {
			return 0, true, nil
		}
		if req.Seq != last+1 {
			return 0, false, fmt.Errorf("%w: got seq %d, want %d", faults.ErrSeqGap, req.Seq, last+1)
		}
	}
	if s.sj != nil {
		if err := s.sj.AppendBody(body); err != nil {
			return 0, false, fmt.Errorf("server: journal append: %w", err)
		}
		journalChunks.Inc()
	}
	n, err := s.publishEvents(req)
	if err != nil {
		return n, false, err
	}
	if req.Seq > 0 {
		s.mu.Lock()
		s.lastSeq = req.Seq
		s.mu.Unlock()
	}
	return n, false, nil
}

// publishEvents merges and publishes one request's events (no sequence
// or journal bookkeeping — publish and recovery replay share it).
func (s *session) publishEvents(req api.FramesRequest) (int, error) {
	audio := make([]stream.AudioFrame, len(req.Audio))
	for i, f := range req.Audio {
		audio[i] = f.ToStream()
	}
	imu := make([]stream.IMUSample, len(req.IMU))
	for i, smp := range req.IMU {
		imu[i] = smp.ToStream()
	}
	gps := make([]stream.GPSSample, len(req.GPS))
	for i, smp := range req.GPS {
		gps[i] = smp.ToStream()
	}
	msgs := stream.Merge(audio, imu, gps)
	for i, msg := range msgs {
		if err := s.pub(msg); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}

// newEngine builds a session's engine from its request: the analyzer at
// the requested precision (a threshold-preserving clone), driven with
// the requested stream options over a bus buffer of at least floor.
func (s *Server) newEngine(req api.SessionRequest, floor int) (*stream.Engine, error) {
	an := s.an
	if req.Precision != "" {
		var err error
		if an, err = an.WithPrecision(soundboost.Precision(req.Precision)); err != nil {
			return nil, err
		}
	}
	buffer := s.cfg.SessionBuffer
	if req.Buffer > 0 {
		buffer = req.Buffer
	}
	opts := []stream.Option{
		stream.WithFlightName(req.Flight),
		stream.WithBuffer(maxInt(buffer, floor)),
		stream.WithGapFill(req.GapFill),
	}
	if req.LagHorizonSeconds > 0 {
		opts = append(opts, stream.WithLagHorizon(req.LagHorizonSeconds))
	}
	return stream.New(an, req.SampleRateHz, opts...)
}

// stateNow returns the current lifecycle state.
func (s *session) stateNow() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// createSession builds, registers, and starts a session. It enforces the
// table bound: when full, the least-recently-touched finished session is
// evicted; if every slot holds a live session the request is shed with
// ErrCapacity (HTTP 429).
func (s *Server) createSession(req api.SessionRequest) (*session, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errShuttingDown
	}
	if len(s.sessions) >= s.cfg.MaxSessions && !s.evictLocked() {
		sessionsRejected.Inc()
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d live sessions (cap %d)",
			faults.ErrCapacity, len(s.sessions), s.cfg.MaxSessions)
	}
	s.nextID++
	id := fmt.Sprintf("s-%08d", s.nextID)
	s.mu.Unlock()

	// Engine construction validates the precision and the sample rate
	// against the calibrated model outside the table lock (it allocates
	// filters).
	eng, err := s.newEngine(req, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", faults.ErrUnprocessable, err)
	}
	bus := mavbus.NewBus(0)
	if err := eng.Attach(bus); err != nil {
		return nil, err
	}
	now := s.now()
	sess := &session{
		id:        id,
		flight:    req.Flight,
		bus:       bus,
		eng:       eng,
		created:   now,
		lastTouch: now,
		req:       req,
		pub:       bus.Publish,
		logf:      s.logf,
		state:     api.SessionOpen,
		done:      make(chan struct{}),
	}
	if s.cfg.SessionInjector != nil {
		if inj := s.cfg.SessionInjector(id, req.Flight); inj != nil {
			sess.inj = inj
			sess.pub = inj.Publisher(bus.Publish)
		}
	}
	if s.journal != nil {
		sj, err := s.journal.Session(id)
		if err != nil {
			bus.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		sess.sj = sj
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		bus.Close()
		if sess.sj != nil {
			sess.sj.Remove()
		}
		return nil, errShuttingDown
	}
	if len(s.sessions) >= s.cfg.MaxSessions && !s.evictLocked() {
		sessionsRejected.Inc()
		n := len(s.sessions)
		s.mu.Unlock()
		bus.Close()
		if sess.sj != nil {
			sess.sj.Remove()
		}
		return nil, fmt.Errorf("%w: %d live sessions (cap %d)", faults.ErrCapacity, n, s.cfg.MaxSessions)
	}
	s.sessions[id] = sess
	sessionsActive.Set(float64(len(s.sessions)))
	s.wg.Add(1)
	s.mu.Unlock()

	sessionsOpened.Inc()
	sess.persistMeta()
	go func() {
		defer s.wg.Done()
		sess.run()
	}()
	s.logf("session %s opened (flight %q, %g Hz)", id, req.Flight, req.SampleRateHz)
	return sess, nil
}

// evictLocked removes the least-recently-touched finished session to
// make room; it reports false when every session is still live. Caller
// holds s.mu.
func (s *Server) evictLocked() bool {
	var victim *session
	for _, sess := range s.sessions {
		if st := sess.stateNow(); st != api.SessionDone && st != api.SessionFailed {
			continue
		}
		if victim == nil || sess.lastTouchLocked().Before(victim.lastTouchLocked()) {
			victim = sess
		}
	}
	if victim == nil {
		return false
	}
	delete(s.sessions, victim.id)
	if victim.sj != nil {
		victim.sj.Remove()
	}
	sessionsActive.Set(float64(len(s.sessions)))
	sessionsEvicted.Inc()
	s.logf("session %s evicted (LRU, table full)", victim.id)
	return true
}

// lastTouchLocked reads the idle clock under the session lock.
func (s *session) lastTouchLocked() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTouch
}

// lookup resolves a session id.
func (s *Server) lookup(id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", faults.ErrSessionNotFound, id)
	}
	return sess, nil
}

// janitor sweeps open sessions against the idle timeout and hard
// deadline until stop closes.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
		}
		now := s.now()
		s.mu.Lock()
		open := make([]*session, 0, len(s.sessions))
		for _, sess := range s.sessions {
			open = append(open, sess)
		}
		s.mu.Unlock()
		for _, sess := range open {
			sess.mu.Lock()
			state := sess.state
			idle := now.Sub(sess.lastTouch)
			age := now.Sub(sess.created)
			sess.mu.Unlock()
			if state == api.SessionOpen {
				switch {
				case age > s.cfg.MaxSessionAge:
					if sess.closeStream() {
						sessionsDeadline.Inc()
						s.logf("session %s closed: hard deadline (%s)", sess.id, s.cfg.MaxSessionAge)
					}
				case idle > s.cfg.IdleTimeout:
					if sess.closeStream() {
						sessionsExpired.Inc()
						s.logf("session %s closed: idle for %s", sess.id, idle.Round(time.Millisecond))
					}
				}
			}
			// Periodic checkpoint: refresh the journaled engine snapshot so
			// a crash loses at most one sweep interval of progress metadata
			// (never chunks — those are write-ahead).
			if sess.sj != nil && state == api.SessionOpen {
				sess.persistMeta()
			}
		}
		s.sweepFollowers(now)
	}
}
