package mavbus

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPublishSubscribe(t *testing.T) {
	b := NewBus(10)
	defer b.Close()
	sub, err := b.Subscribe("imu", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(Message{Topic: "imu", Time: 1, Payload: "a"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.C:
		if m.Time != 1 || m.Payload != "a" {
			t.Errorf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("no message delivered")
	}
}

func TestTopicIsolation(t *testing.T) {
	b := NewBus(10)
	defer b.Close()
	imu, err := b.Subscribe("imu", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(Message{Topic: "gps", Time: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-imu.C:
		t.Errorf("imu subscriber got gps message %+v", m)
	default:
	}
}

func TestDropOldestBackpressure(t *testing.T) {
	b := NewBus(0)
	defer b.Close()
	sub, err := b.Subscribe("imu", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := b.Publish(Message{Topic: "imu", Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer of 2: the two newest messages (3, 4) must survive.
	m1 := <-sub.C
	m2 := <-sub.C
	if m1.Time != 3 || m2.Time != 4 {
		t.Errorf("surviving messages %v, %v; want 3, 4", m1.Time, m2.Time)
	}
	if b.Dropped() == 0 {
		t.Error("Dropped() = 0 after overflow")
	}
}

func TestReplayBuffer(t *testing.T) {
	b := NewBus(3)
	defer b.Close()
	for i := 0; i < 5; i++ {
		if err := b.Publish(Message{Topic: "gps", Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r := b.Replay("gps")
	if len(r) != 3 {
		t.Fatalf("replay length %d, want 3", len(r))
	}
	for i, m := range r {
		if m.Time != float64(i+2) {
			t.Errorf("replay[%d].Time = %v, want %v", i, m.Time, i+2)
		}
	}
	if got := b.Replay("nonexistent"); len(got) != 0 {
		t.Errorf("unknown topic replay = %v", got)
	}
}

func TestCancelSubscription(t *testing.T) {
	b := NewBus(0)
	defer b.Close()
	sub, err := b.Subscribe("imu", 1)
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	if _, ok := <-sub.C; ok {
		t.Error("channel not closed after Cancel")
	}
	// Publishing after cancel must not panic.
	if err := b.Publish(Message{Topic: "imu"}); err != nil {
		t.Fatal(err)
	}
	// Double cancel is safe.
	sub.Cancel()
}

func TestCloseBus(t *testing.T) {
	b := NewBus(0)
	sub, err := b.Subscribe("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, ok := <-sub.C; ok {
		t.Error("subscription channel open after Close")
	}
	if err := b.Publish(Message{Topic: "x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close = %v, want ErrClosed", err)
	}
	if _, err := b.Subscribe("x", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after close = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestConcurrentPublishers(t *testing.T) {
	b := NewBus(1000)
	defer b.Close()
	sub, err := b.Subscribe("imu", 1000)
	if err != nil {
		t.Fatal(err)
	}
	const publishers = 8
	const perPublisher = 100
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				_ = b.Publish(Message{Topic: "imu", Time: float64(p*1000 + i)})
			}
		}(p)
	}
	wg.Wait()
	if got := len(b.Replay("imu")); got != publishers*perPublisher {
		t.Errorf("replay has %d messages, want %d", got, publishers*perPublisher)
	}
	received := 0
	for {
		select {
		case <-sub.C:
			received++
		default:
			if received != publishers*perPublisher {
				t.Errorf("received %d, want %d", received, publishers*perPublisher)
			}
			return
		}
	}
}

// TestDropAccountingExact checks the core backpressure invariant with a
// racing consumer: every published message is either delivered, still
// queued, or counted dropped — never double-counted, never lost silently.
func TestDropAccountingExact(t *testing.T) {
	const total = 5000
	b := NewBus(0)
	sub, err := b.Subscribe("imu", 2)
	if err != nil {
		t.Fatal(err)
	}
	received := make(chan int)
	go func() {
		n := 0
		for range sub.C {
			n++
		}
		received <- n
	}()
	for i := 0; i < total; i++ {
		if err := b.Publish(Message{Topic: "imu", Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	got := <-received
	if got+b.Dropped() != total {
		t.Errorf("delivered %d + dropped %d = %d, want %d", got, b.Dropped(), got+b.Dropped(), total)
	}
	if droppedTopic(b, "imu") != b.Dropped() {
		t.Errorf("per-topic dropped %d != total %d with a single topic", droppedTopic(b, "imu"), b.Dropped())
	}
	if droppedTopic(b, "gps") != 0 {
		t.Errorf("untouched topic reports %d drops", droppedTopic(b, "gps"))
	}
}

// TestDropAccountingPerTopic isolates counters across topics.
func TestDropAccountingPerTopic(t *testing.T) {
	b := NewBus(0)
	defer b.Close()
	if _, err := b.Subscribe("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("b", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = b.Publish(Message{Topic: "a", Time: float64(i)})
	}
	_ = b.Publish(Message{Topic: "b", Time: 0})
	if got := droppedTopic(b, "a"); got != 3 {
		t.Errorf("topic a dropped = %d, want 3", got)
	}
	if got := droppedTopic(b, "b"); got != 0 {
		t.Errorf("topic b dropped = %d, want 0", got)
	}
	if got := b.Dropped(); got != 3 {
		t.Errorf("total dropped = %d, want 3", got)
	}
}

// TestCancelAfterClose: both orders must be silent no-ops with the
// channel closed exactly once and the topic map left clean.
func TestCancelAfterClose(t *testing.T) {
	b := NewBus(0)
	sub, err := b.Subscribe("imu", 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	sub.Cancel() // must not panic, must not resurrect topic state
	sub.Cancel()
	b.Close()
	if _, ok := <-sub.C; ok {
		t.Error("channel open after Close+Cancel")
	}

	// Reverse order on a fresh bus.
	b2 := NewBus(0)
	sub2, err := b2.Subscribe("imu", 1)
	if err != nil {
		t.Fatal(err)
	}
	sub2.Cancel()
	b2.Close()
	sub2.Cancel()
	if _, ok := <-sub2.C; ok {
		t.Error("channel open after Cancel+Close")
	}
}

// TestConcurrentPublishCancelClose hammers every mutating entry point at
// once; run under -race it guards the locking discipline, and it must
// terminate (the old sync.Once design could deadlock Close against a
// concurrent Cancel).
func TestConcurrentPublishCancelClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		b := NewBus(4)
		var subs []*Subscription
		for i := 0; i < 8; i++ {
			s, err := b.Subscribe("imu", 2)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, s)
		}
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					_ = b.Publish(Message{Topic: "imu", Time: float64(p*1000 + i)})
				}
			}(p)
		}
		for _, s := range subs {
			wg.Add(2)
			go func(s *Subscription) {
				defer wg.Done()
				for range s.C {
				}
			}(s)
			go func(s *Subscription) {
				defer wg.Done()
				s.Cancel()
			}(s)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Close()
		}()
		wg.Wait()
		b.Close()
	}
}

func TestTopicsAndString(t *testing.T) {
	b := NewBus(5)
	defer b.Close()
	_ = b.Publish(Message{Topic: "a"})
	_ = b.Publish(Message{Topic: "b"})
	if got := len(b.replay); got != 2 {
		t.Errorf("%d replay topics, want 2", got)
	}
	if s := b.String(); s == "" {
		t.Error("empty String()")
	}
}

// droppedTopic reports how many messages the bus shed on one topic.
func droppedTopic(b *Bus, topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ts, ok := b.topics[topic]; ok {
		return ts.dropped
	}
	return 0
}
