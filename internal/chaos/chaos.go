// Package chaos is SoundBoost's deterministic fault-injection layer: a
// seed-driven schedule of message- and transport-level faults that wraps
// the two places telemetry crosses a trust boundary — mavbus publishers
// (Injector, Publisher) and the HTTP client (Transport, in http.go).
//
// The design contract is determinism: every fault decision is drawn from
// a single seeded PRNG in publication order, so the same seed over the
// same message sequence injects byte-identical faults on every run. That
// is what lets the chaos soak (`soundboost chaos`, scripts/chaos_smoke.sh)
// assert "same seed ⇒ same verdicts" across whole process runs, the
// systematic-perturbation methodology EchoHawk-style session attacks and
// drift-evasive GNSS spoofing argue for: detectors must stay sound under
// gradual, correlated corruption, not just clean-data unit tests.
//
// Message faults (Rates, applied per message in a fixed decision order):
//
//   - drop: the message never reaches the bus
//   - dup: the message is published twice
//   - reorder: the message is held back and published after its successor
//   - corrupt_nan / truncate / bit_flip: payload corruption via the
//     caller-supplied CorruptFunc (the typed mutators live in
//     internal/stream, which owns the payload types — chaos itself never
//     imports stream, so stream.Replay can inject through this package)
//   - freeze: a stuck-at sensor episode — payload values latch at the
//     previous message's for FreezeSeconds while timestamps advance
//   - clock skew / jitter: timestamps drift by SkewPerSecond·t plus a
//     uniform ±JitterSeconds perturbation
//   - latency: a burst sleep before publication (Sleep is injectable so
//     tests and as-fast-as-possible soaks stay instant)
//   - cutoff: mid-flight truncation — everything at or after
//     CutoffSeconds is silently dropped
//   - poison: after PoisonAfter accepted messages a PoisonPill payload is
//     published; the streaming engine treats it as fatal and panics,
//     which is the deterministic trigger for the server's per-session
//     panic-isolation domain
//
// Every injected fault is counted twice: exactly, per injector
// (Counts(), for the soak's accounting invariants) and process-wide in
// obs as chaos.injected.<kind> so injected faults can be reconciled
// against the stream.*/server.* counters that observe them.
package chaos

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"soundboost/internal/mavbus"
	"soundboost/internal/obs"
)

// Kind names one fault family, as counted in Counts() and in the
// chaos.injected.<kind> obs counters.
type Kind string

// Message-plane fault kinds (Injector). HTTP-plane kinds live in http.go.
const (
	KindDrop       Kind = "drop"
	KindDup        Kind = "dup"
	KindReorder    Kind = "reorder"
	KindCorruptNaN Kind = "corrupt_nan"
	KindTruncate   Kind = "truncate"
	KindBitFlip    Kind = "bit_flip"
	KindFreeze     Kind = "freeze"
	KindRetime     Kind = "retime"
	KindLatency    Kind = "latency"
	KindCutoff     Kind = "cutoff"
	KindPoison     Kind = "poison"
)

// Kinds lists every message-plane fault kind in stable order (for
// deterministic report output).
var Kinds = []Kind{
	KindDrop, KindDup, KindReorder, KindCorruptNaN, KindTruncate,
	KindBitFlip, KindFreeze, KindRetime, KindLatency, KindCutoff, KindPoison,
}

// PoisonPill is the crash-test payload: consumers that treat engine
// integrity as fatal (internal/stream) panic on it, which is how the
// soak exercises the server's per-session panic isolation without a
// bespoke test seam. It is never serialized over the wire.
type PoisonPill struct{}

// Corruption selects which payload mutation a CorruptFunc should apply.
type Corruption int

const (
	// CorruptNaN poisons one value in the payload with NaN.
	CorruptNaN Corruption = iota
	// CorruptTruncate shortens the payload (audio frames lose their
	// tail; fixed-size payloads report not-applicable).
	CorruptTruncate
	// CorruptBitFlip flips one mantissa bit in one payload value.
	CorruptBitFlip
	// CorruptFreeze rebuilds cur with prev's sensor values (stuck-at)
	// while keeping cur's timestamps.
	CorruptFreeze
	// CorruptRetime shifts every timestamp in the payload by dt seconds.
	CorruptRetime
)

// CorruptFunc applies one typed payload mutation. cur is the payload to
// mutate, prev the previous payload seen on the same topic (freeze), dt
// the time shift (retime). It returns the mutated payload and whether
// the mutation was applicable; a false return must leave cur unused so
// the injector can skip the fault without counting it. Implementations
// must not mutate cur or prev in place — messages may be duplicated.
type CorruptFunc func(rng *rand.Rand, kind Corruption, cur, prev any, dt float64) (any, bool)

// Rates are the per-message fault probabilities for one topic, each in
// [0, 1]. The zero value injects nothing.
type Rates struct {
	Drop    float64
	Dup     float64
	Reorder float64
	// NaN, Truncate, BitFlip are payload-corruption probabilities,
	// evaluated in that order (at most one corruption per message).
	NaN      float64
	Truncate float64
	BitFlip  float64
	// Freeze is the probability a stuck-at episode starts at this
	// message; the episode lasts Config.FreezeSeconds.
	Freeze float64
}

// Config is one seeded fault schedule.
type Config struct {
	// Seed drives every decision; the same seed over the same message
	// sequence reproduces the same faults.
	Seed int64
	// Default applies to topics without a PerTopic override.
	Default Rates
	// PerTopic overrides Default wholesale for the named topics.
	PerTopic map[string]Rates
	// FreezeSeconds is the stuck-at episode length (default 1 s when a
	// Freeze rate is set).
	FreezeSeconds float64
	// SkewPerSecond drifts timestamps by SkewPerSecond·t — gradual,
	// correlated corruption rather than a step.
	SkewPerSecond float64
	// JitterSeconds perturbs each timestamp by uniform ±JitterSeconds.
	JitterSeconds float64
	// LatencyRate / LatencySeconds inject burst sleeps before
	// publication.
	LatencyRate    float64
	LatencySeconds float64
	// CutoffSeconds, when > 0, drops every message stamped at or after
	// it — mid-flight truncation.
	CutoffSeconds float64
	// PoisonAfter, when > 0, publishes a PoisonPill in place of the n-th
	// message offered (1-based).
	PoisonAfter int
	// Sleep implements latency bursts (nil = time.Sleep). Soaks that
	// replay as fast as possible install a no-op and still get the
	// injection counted.
	Sleep func(time.Duration)
}

// obs counters, one per kind, resolved once.
var injectedCounters = func() map[Kind]*obs.Counter {
	m := make(map[Kind]*obs.Counter, len(Kinds))
	for _, k := range Kinds {
		m[k] = obs.Default.Counter("chaos.injected." + string(k))
	}
	return m
}()

// topicChaos is the per-topic injector state.
type topicChaos struct {
	rates       Rates
	prev        any     // last payload offered (freeze source)
	freezeUntil float64 // episode end, exclusive
	held        *mavbus.Message
}

// Injector applies one Config to a message sequence. It is safe for
// concurrent use, but determinism additionally requires that messages be
// offered in a deterministic order — one injector per session/replay,
// fed by one goroutine, is the intended shape.
type Injector struct {
	cfg     Config
	corrupt CorruptFunc

	mu     sync.Mutex
	rng    *rand.Rand
	topics map[string]*topicChaos
	counts map[Kind]int64
	offers int // messages offered so far (poison trigger)
}

// NewInjector builds an injector for one schedule. corrupt supplies the
// typed payload mutators (stream.CorruptPayload for the engine's payload
// types); nil disables payload corruption, freeze, and retime.
func NewInjector(cfg Config, corrupt CorruptFunc) *Injector {
	if cfg.FreezeSeconds <= 0 {
		cfg.FreezeSeconds = 1
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Injector{
		cfg:     cfg,
		corrupt: corrupt,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		topics:  make(map[string]*topicChaos),
		counts:  make(map[Kind]int64),
	}
}

// PubFunc publishes one message (mavbus.Bus.Publish, or any wrapper).
type PubFunc func(mavbus.Message) error

// Publisher returns a publish function that routes every message through
// the fault schedule before handing the survivors to pub.
func (in *Injector) Publisher(pub PubFunc) PubFunc {
	return func(m mavbus.Message) error { return in.Offer(m, pub) }
}

// Counts returns an exact snapshot of the faults injected so far.
func (in *Injector) Counts() map[Kind]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

func (in *Injector) count(k Kind) {
	in.counts[k]++
	injectedCounters[k].Inc()
}

func (in *Injector) topicLocked(topic string) *topicChaos {
	tc, ok := in.topics[topic]
	if !ok {
		rates, has := in.cfg.PerTopic[topic]
		if !has {
			rates = in.cfg.Default
		}
		tc = &topicChaos{rates: rates}
		in.topics[topic] = tc
	}
	return tc
}

// hit draws one decision. Rates of zero consume no randomness, so a
// schedule's draw sequence depends only on its own configuration and the
// message sequence.
func (in *Injector) hit(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return in.rng.Float64() < rate
}

// Offer runs one message through the schedule and publishes the result
// (possibly mutated, duplicated, reordered, or nothing at all) via pub.
// The returned error is the first publish error, if any; injected drops
// return nil — from the producer's point of view the message was
// accepted and then lost, exactly like a lossy link.
func (in *Injector) Offer(m mavbus.Message, pub PubFunc) error {
	in.mu.Lock()
	in.offers++
	tc := in.topicLocked(m.Topic)

	// Mid-flight truncation: everything at or past the cutoff vanishes.
	if in.cfg.CutoffSeconds > 0 && m.Time >= in.cfg.CutoffSeconds {
		in.count(KindCutoff)
		in.mu.Unlock()
		return nil
	}

	// Poison pill: replace the n-th offered message wholesale.
	if in.cfg.PoisonAfter > 0 && in.offers == in.cfg.PoisonAfter {
		in.count(KindPoison)
		poisoned := mavbus.Message{Topic: m.Topic, Time: m.Time, Payload: PoisonPill{}}
		in.mu.Unlock()
		return pub(poisoned)
	}

	prev := tc.prev
	tc.prev = m.Payload

	if in.hit(tc.rates.Drop) {
		in.count(KindDrop)
		in.mu.Unlock()
		return nil
	}

	// Stuck-at episodes: latch payload values at prev's while the
	// timestamps keep advancing.
	if in.corrupt != nil {
		if m.Time < tc.freezeUntil && prev != nil {
			if frozen, ok := in.corrupt(in.rng, CorruptFreeze, m.Payload, prev, 0); ok {
				m.Payload = frozen
				in.count(KindFreeze)
			}
		} else if in.hit(tc.rates.Freeze) {
			tc.freezeUntil = m.Time + in.cfg.FreezeSeconds
		}

		// At most one payload corruption per message, NaN > truncate >
		// bit-flip.
		switch {
		case in.hit(tc.rates.NaN):
			if p, ok := in.corrupt(in.rng, CorruptNaN, m.Payload, prev, 0); ok {
				m.Payload = p
				in.count(KindCorruptNaN)
			}
		case in.hit(tc.rates.Truncate):
			if p, ok := in.corrupt(in.rng, CorruptTruncate, m.Payload, prev, 0); ok {
				m.Payload = p
				in.count(KindTruncate)
			}
		case in.hit(tc.rates.BitFlip):
			if p, ok := in.corrupt(in.rng, CorruptBitFlip, m.Payload, prev, 0); ok {
				m.Payload = p
				in.count(KindBitFlip)
			}
		}

		// Clock skew and timestamp jitter: a drifting dt plus uniform
		// noise, applied to the envelope and the payload's own clocks.
		if in.cfg.SkewPerSecond != 0 || in.cfg.JitterSeconds > 0 {
			dt := in.cfg.SkewPerSecond * m.Time
			if in.cfg.JitterSeconds > 0 {
				dt += (2*in.rng.Float64() - 1) * in.cfg.JitterSeconds
			}
			if dt != 0 && !math.IsNaN(dt) {
				if p, ok := in.corrupt(in.rng, CorruptRetime, m.Payload, prev, dt); ok {
					m.Payload = p
					m.Time += dt
					in.count(KindRetime)
				}
			}
		}
	}

	// Burst latency before publication.
	var delay time.Duration
	if in.hit(in.cfg.LatencyRate) && in.cfg.LatencySeconds > 0 {
		in.count(KindLatency)
		delay = time.Duration(in.cfg.LatencySeconds * float64(time.Second))
	}

	dup := in.hit(tc.rates.Dup)
	if dup {
		in.count(KindDup)
	}

	// Reordering: hold this message back and release it after the next
	// one on the same topic. A held message is never held twice. A
	// duplicate of a held message still goes out now — duplication and
	// reordering compose (one copy early, one late) rather than cancel,
	// which keeps the conservation law exact: every offer eventually
	// publishes 1 + dup copies.
	var out []mavbus.Message
	if tc.held != nil {
		out = append(out, m, *tc.held)
		tc.held = nil
	} else if in.hit(tc.rates.Reorder) {
		in.count(KindReorder)
		held := m
		tc.held = &held
	} else {
		out = append(out, m)
	}
	if dup {
		out = append(out, m)
	}
	sleep := in.cfg.Sleep
	in.mu.Unlock()

	if delay > 0 {
		sleep(delay)
	}
	var firstErr error
	for _, msg := range out {
		if err := pub(msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Flush publishes any message still held for reordering — call once the
// source stream ends so the last message is not silently swallowed.
func (in *Injector) Flush(pub PubFunc) error {
	in.mu.Lock()
	topics := make([]string, 0, len(in.topics))
	for t := range in.topics {
		topics = append(topics, t)
	}
	sort.Strings(topics) // deterministic release order
	var out []mavbus.Message
	for _, t := range topics {
		if tc := in.topics[t]; tc.held != nil {
			out = append(out, *tc.held)
			tc.held = nil
		}
	}
	in.mu.Unlock()
	var firstErr error
	for _, m := range out {
		if err := pub(m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
