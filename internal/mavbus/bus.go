// Package mavbus is a lightweight typed publish/subscribe telemetry bus
// modelled on the MAVLink/MAVSDK dataflow between the PX4 autopilot and the
// companion computer running SoundBoost (paper §III-D). Topics carry typed
// messages; subscribers receive them over buffered channels with
// drop-oldest backpressure, mirroring how a telemetry link sheds stale
// samples rather than stalling the flight stack. A bounded replay buffer
// per topic supports the post hoc analysis pattern: RCA runs after the
// mission, reading back what was recorded — and the online engine in
// internal/stream consumes the same topics live.
package mavbus

import (
	"fmt"
	"sort"
	"sync"

	"soundboost/internal/faults"
	"soundboost/internal/obs"
)

// Bus-wide metrics, resolved once at init and gated by obs.Enable.
// mavbus.published counts accepted Publish calls; mavbus.dropped counts
// messages shed by backpressure across all topics (per-topic counters are
// registered lazily as mavbus.dropped.<topic>).
var (
	busPublished = obs.Default.Counter("mavbus.published")
	busDropped   = obs.Default.Counter("mavbus.dropped")
)

// ErrClosed is returned when operating on a closed bus. It aliases
// faults.ErrBusClosed, the repository-wide error set, so errors.Is
// matches under either name.
var ErrClosed = faults.ErrBusClosed

// Message is one telemetry item on the bus.
type Message struct {
	// Topic names the stream (e.g. "imu", "gps", "audio-frame").
	Topic string
	// Time is the message timestamp in flight seconds.
	Time float64
	// Payload is the typed message body.
	Payload any
}

// Subscription receives messages for one topic.
type Subscription struct {
	// C delivers messages. It is closed when the bus closes or the
	// subscription is cancelled.
	C <-chan Message

	bus   *Bus
	topic string
	ch    chan Message
	done  bool // guarded by bus.mu
}

// Cancel detaches the subscription and closes its channel. It is
// idempotent, and safe to call before, after, or concurrently with
// Bus.Close: whichever runs first closes the channel, the other is a
// no-op.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	s.cancelLocked(true)
}

// cancelLocked closes the subscription under the bus lock. detach removes
// it from the topic map (Close clears the whole map itself).
func (s *Subscription) cancelLocked(detach bool) {
	if s.done {
		return
	}
	s.done = true
	if detach {
		subs := s.bus.subs[s.topic]
		for i, sub := range subs {
			if sub == s {
				s.bus.subs[s.topic] = append(subs[:i], subs[i+1:]...)
				break
			}
		}
		if len(s.bus.subs[s.topic]) == 0 {
			delete(s.bus.subs, s.topic)
		}
	}
	close(s.ch)
}

// topicState is the per-topic bookkeeping: exact drop count plus the
// lazily registered obs counter mirroring it.
type topicState struct {
	dropped    int
	obsDropped *obs.Counter
}

// Bus is a concurrency-safe topic bus with per-topic replay buffers.
type Bus struct {
	mu      sync.Mutex
	subs    map[string][]*Subscription
	replay  map[string][]Message
	topics  map[string]*topicState
	replayN int
	closed  bool
	dropped int
}

// NewBus builds a bus retaining up to replayN messages per topic for
// post hoc reads (0 disables replay).
func NewBus(replayN int) *Bus {
	return &Bus{
		subs:    make(map[string][]*Subscription),
		replay:  make(map[string][]Message),
		topics:  make(map[string]*topicState),
		replayN: replayN,
	}
}

// topicLocked returns (creating if needed) the state for a topic.
func (b *Bus) topicLocked(topic string) *topicState {
	ts, ok := b.topics[topic]
	if !ok {
		ts = &topicState{obsDropped: obs.Default.Counter("mavbus.dropped." + topic)}
		b.topics[topic] = ts
	}
	return ts
}

// Publish posts a message to a topic. Subscribers with full buffers drop
// their oldest message (telemetry semantics: newest data wins). Exactly
// one message is counted dropped per shed message: either the drained
// oldest, or — if the buffer state changed under a racing consumer — the
// new message itself, never both.
func (b *Bus) Publish(msg Message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	busPublished.Inc()
	if b.replayN > 0 {
		r := append(b.replay[msg.Topic], msg)
		if len(r) > b.replayN {
			r = r[len(r)-b.replayN:]
		}
		b.replay[msg.Topic] = r
	}
	for _, s := range b.subs[msg.Topic] {
		select {
		case s.ch <- msg:
			continue
		default:
		}
		// Full buffer: shed the oldest queued message to make room for
		// the newest. A consumer may drain the channel between the probe
		// and the drain; the accounting below stays exact either way.
		shed := false
		select {
		case <-s.ch:
			shed = true
		default:
		}
		select {
		case s.ch <- msg:
		default:
			// Only consumers remove from s.ch while the lock is held, so
			// this branch means the drain lost the race to an emptying
			// consumer and the buffer refilled is impossible — but if it
			// ever triggers, the new message is the one shed.
			shed = true
		}
		if shed {
			b.dropped++
			ts := b.topicLocked(msg.Topic)
			ts.dropped++
			busDropped.Inc()
			ts.obsDropped.Inc()
		}
	}
	return nil
}

// Subscribe attaches to a topic with the given channel buffer size
// (minimum 1).
func (b *Bus) Subscribe(topic string, buffer int) (*Subscription, error) {
	if buffer < 1 {
		buffer = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	ch := make(chan Message, buffer)
	sub := &Subscription{C: ch, bus: b, topic: topic, ch: ch}
	b.subs[topic] = append(b.subs[topic], sub)
	return sub, nil
}

// Replay returns a copy of the retained messages for a topic in
// publication order.
func (b *Bus) Replay(topic string) []Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Message(nil), b.replay[topic]...)
}

// Dropped reports how many messages were shed due to backpressure across
// all topics.
func (b *Bus) Dropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Close shuts the bus; all subscription channels are closed. Close is
// idempotent and safe against concurrent Cancel calls.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, subs := range b.subs {
		for _, s := range subs {
			s.cancelLocked(false)
		}
	}
	b.subs = make(map[string][]*Subscription)
}

// String implements fmt.Stringer for diagnostics.
func (b *Bus) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var drops []string
	for t, ts := range b.topics {
		if ts.dropped > 0 {
			drops = append(drops, fmt.Sprintf("%s:%d", t, ts.dropped))
		}
	}
	sort.Strings(drops)
	return fmt.Sprintf("mavbus{topics=%d dropped=%d %v closed=%v}", len(b.replay), b.dropped, drops, b.closed)
}
