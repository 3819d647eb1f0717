package chaos

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"soundboost/internal/mavbus"
)

// recorder captures the published sequence for comparison across runs.
type recorder struct {
	msgs []mavbus.Message
}

func (r *recorder) pub(m mavbus.Message) error {
	r.msgs = append(r.msgs, m)
	return nil
}

// testCorrupt is a minimal CorruptFunc over float64 payloads: NaN
// replaces the value, truncate is not applicable, bit-flip adds 1,
// freeze returns prev, retime passes the payload through.
func testCorrupt(_ *rand.Rand, kind Corruption, cur, prev any, _ float64) (any, bool) {
	v, ok := cur.(float64)
	if !ok {
		return nil, false
	}
	switch kind {
	case CorruptNaN:
		return math.NaN(), true
	case CorruptBitFlip:
		return v + 1, true
	case CorruptFreeze:
		if prev == nil {
			return nil, false
		}
		return prev, true
	case CorruptRetime:
		return v, true
	}
	return nil, false
}

// feed offers n messages on two topics with advancing clocks.
func feed(in *Injector, pub PubFunc, n int) {
	for i := 0; i < n; i++ {
		t := float64(i) * 0.01
		topic := "imu"
		if i%3 == 0 {
			topic = "gps"
		}
		_ = in.Offer(mavbus.Message{Topic: topic, Time: t, Payload: float64(i)}, pub)
	}
	_ = in.Flush(pub)
}

func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{
		Seed: 7,
		Default: Rates{
			Drop: 0.1, Dup: 0.1, Reorder: 0.1,
			NaN: 0.05, BitFlip: 0.05, Freeze: 0.02,
		},
		SkewPerSecond: 0.001,
		JitterSeconds: 0.0005,
		Sleep:         func(time.Duration) {},
	}
	var runs [2]*recorder
	var counts [2]map[Kind]int64
	for i := range runs {
		runs[i] = &recorder{}
		in := NewInjector(cfg, testCorrupt)
		feed(in, runs[i].pub, 500)
		counts[i] = in.Counts()
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Fatalf("same seed produced different fault counts:\n%v\n%v", counts[0], counts[1])
	}
	if len(runs[0].msgs) != len(runs[1].msgs) {
		t.Fatalf("same seed published %d vs %d messages", len(runs[0].msgs), len(runs[1].msgs))
	}
	for i := range runs[0].msgs {
		a, b := runs[0].msgs[i], runs[1].msgs[i]
		if a.Topic != b.Topic || a.Time != b.Time {
			t.Fatalf("message %d differs: %+v vs %+v", i, a, b)
		}
		// NaN != NaN, so compare payloads via their formatted form.
		if fmt.Sprint(a.Payload) != fmt.Sprint(b.Payload) {
			t.Fatalf("message %d payload differs: %v vs %v", i, a.Payload, b.Payload)
		}
	}
	for k, n := range NewInjector(cfg, testCorrupt).Counts() {
		if n != 0 {
			t.Fatalf("fresh injector reports %d %s faults", n, k)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := Config{Default: Rates{Drop: 0.2}, Sleep: func(time.Duration) {}}
	var published [2]int
	for i, seed := range []int64{1, 2} {
		cfg.Seed = seed
		rec := &recorder{}
		in := NewInjector(cfg, testCorrupt)
		feed(in, rec.pub, 1000)
		published[i] = len(rec.msgs)
	}
	if published[0] == published[1] {
		t.Fatalf("seeds 1 and 2 both published exactly %d messages — schedule looks seed-independent", published[0])
	}
}

// TestZeroRatesConsumeNoRandomness pins the determinism contract that
// lets per-topic schedules compose: a topic with zero rates must not
// advance the PRNG, so adding a quiet topic cannot shift another
// topic's fault schedule.
func TestZeroRatesConsumeNoRandomness(t *testing.T) {
	cfg := Config{
		Seed:     3,
		PerTopic: map[string]Rates{"imu": {Drop: 0.3}},
		Sleep:    func(time.Duration) {},
	}
	run := func(quiet int) []mavbus.Message {
		rec := &recorder{}
		in := NewInjector(cfg, testCorrupt)
		for i := 0; i < 200; i++ {
			// Interleave quiet-topic messages; they must not perturb imu.
			for q := 0; q < quiet; q++ {
				_ = in.Offer(mavbus.Message{Topic: "audio", Time: float64(i), Payload: 0.0}, rec.pub)
			}
			_ = in.Offer(mavbus.Message{Topic: "imu", Time: float64(i), Payload: float64(i)}, rec.pub)
		}
		var imu []mavbus.Message
		for _, m := range rec.msgs {
			if m.Topic == "imu" {
				imu = append(imu, m)
			}
		}
		return imu
	}
	a, b := run(0), run(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("quiet topic perturbed the imu schedule: %d vs %d imu messages survived", len(a), len(b))
	}
}

func TestInjectedFaultsAreCounted(t *testing.T) {
	rec := &recorder{}
	in := NewInjector(Config{
		Seed:    11,
		Default: Rates{Drop: 0.15, Dup: 0.1},
		Sleep:   func(time.Duration) {},
	}, nil)
	const n = 2000
	feed(in, rec.pub, n)
	counts := in.Counts()
	if counts[KindDrop] == 0 || counts[KindDup] == 0 {
		t.Fatalf("expected drops and dups at these rates, got %v", counts)
	}
	// Conservation: published == offered - dropped + duplicated.
	want := int64(n) - counts[KindDrop] + counts[KindDup]
	if got := int64(len(rec.msgs)); got != want {
		t.Fatalf("published %d messages, want %d (offered %d - drop %d + dup %d)",
			got, want, n, counts[KindDrop], counts[KindDup])
	}
}

func TestCutoffDropsTail(t *testing.T) {
	rec := &recorder{}
	in := NewInjector(Config{CutoffSeconds: 1.0, Sleep: func(time.Duration) {}}, nil)
	feed(in, rec.pub, 200) // clocks run to 1.99s
	for _, m := range rec.msgs {
		if m.Time >= 1.0 {
			t.Fatalf("message at t=%.2f survived a 1.0s cutoff", m.Time)
		}
	}
	counts := in.Counts()
	if got := counts[KindCutoff]; got != 100 {
		t.Fatalf("cutoff counted %d messages, want 100", got)
	}
	if len(rec.msgs)+int(counts[KindCutoff]) != 200 {
		t.Fatalf("published %d + cutoff %d != offered 200", len(rec.msgs), counts[KindCutoff])
	}
}

func TestPoisonPillReplacesNthMessage(t *testing.T) {
	rec := &recorder{}
	in := NewInjector(Config{PoisonAfter: 3, Sleep: func(time.Duration) {}}, nil)
	feed(in, rec.pub, 10)
	if len(rec.msgs) != 10 {
		t.Fatalf("published %d messages, want 10", len(rec.msgs))
	}
	if _, ok := rec.msgs[2].Payload.(PoisonPill); !ok {
		t.Fatalf("3rd message payload is %T, want PoisonPill", rec.msgs[2].Payload)
	}
	for i, m := range rec.msgs {
		if _, ok := m.Payload.(PoisonPill); ok && i != 2 {
			t.Fatalf("unexpected extra poison pill at index %d", i)
		}
	}
	if got := in.Counts()[KindPoison]; got != 1 {
		t.Fatalf("poison counted %d times, want 1", got)
	}
}

func TestReorderSwapsAndFlushReleases(t *testing.T) {
	rec := &recorder{}
	// Reorder every message: each Offer holds the message and releases
	// the previously held one, swapping neighbours pairwise.
	in := NewInjector(Config{Default: Rates{Reorder: 1}, Sleep: func(time.Duration) {}}, nil)
	for i := 0; i < 5; i++ {
		_ = in.Offer(mavbus.Message{Topic: "imu", Time: float64(i), Payload: i}, rec.pub)
	}
	// Messages 0..4: 0 held; 1 arrives -> publish 1,0; 2 held... Flush
	// must release the final held message.
	if err := in.Flush(rec.pub); err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, m := range rec.msgs {
		order = append(order, m.Payload.(int))
	}
	want := []int{1, 0, 3, 2, 4}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("reorder produced %v, want %v", order, want)
	}
	if in.Counts()[KindReorder] == 0 {
		t.Fatal("reordering happened but was not counted")
	}
}

func TestFreezeLatchesPayload(t *testing.T) {
	rec := &recorder{}
	in := NewInjector(Config{
		Default:       Rates{Freeze: 1}, // episode starts immediately
		FreezeSeconds: 0.5,
		Sleep:         func(time.Duration) {},
	}, testCorrupt)
	for i := 0; i < 10; i++ {
		_ = in.Offer(mavbus.Message{Topic: "imu", Time: float64(i) * 0.1, Payload: float64(i)}, rec.pub)
	}
	counts := in.Counts()
	if counts[KindFreeze] == 0 {
		t.Fatalf("no freeze injections at rate 1: %v", counts)
	}
	frozen := 0
	for i, m := range rec.msgs {
		if m.Payload.(float64) != float64(i) {
			frozen++
		}
	}
	if int64(frozen) != counts[KindFreeze] {
		t.Fatalf("%d payloads latched but %d freezes counted", frozen, counts[KindFreeze])
	}
}

func TestHTTPTransportDeterministicAndCounted(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer backend.Close()

	run := func() (map[Kind]int64, []string) {
		tr := NewTransport(nil, HTTPConfig{
			Seed:             21,
			ResetRate:        0.2,
			DropResponseRate: 0.15,
			Error5xxRate:     0.15,
			SlowRate:         0.2,
			Sleep:            func(time.Duration) {},
		})
		client := &http.Client{Transport: tr}
		var outcomes []string
		for i := 0; i < 200; i++ {
			resp, err := client.Get(backend.URL)
			switch {
			case err != nil:
				if !errors.Is(err, ErrInjectedReset) {
					// http.Client wraps transport errors in *url.Error; unwrap
					// check above handles it, anything else is a real failure.
					t.Fatalf("request %d: non-injected error: %v", i, err)
				}
				outcomes = append(outcomes, "reset")
			case resp.StatusCode == http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") == "" {
					t.Fatalf("request %d: injected 503 without Retry-After", i)
				}
				resp.Body.Close()
				outcomes = append(outcomes, "503")
			default:
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || string(b) != `{"ok":true}` {
					t.Fatalf("request %d: body %q err %v", i, b, err)
				}
				outcomes = append(outcomes, "ok")
			}
		}
		return tr.Counts(), outcomes
	}
	c1, o1 := run()
	c2, o2 := run()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("same seed, different HTTP fault counts:\n%v\n%v", c1, c2)
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("same seed produced a different request-outcome sequence")
	}
	for _, k := range []Kind{KindHTTPReset, KindHTTP5xx, KindHTTPSlow, KindHTTPDropResponse} {
		if c1[k] == 0 {
			t.Fatalf("no %s injected at these rates over 200 requests: %v", k, c1)
		}
	}
	// Every outcome ties back to a counted fault or a clean pass.
	resets := int64(0)
	for _, o := range o1 {
		if o == "reset" {
			resets++
		}
	}
	if want := c1[KindHTTPReset] + c1[KindHTTPDropResponse]; resets != want {
		t.Fatalf("%d reset outcomes, want %d (reset %d + dropped response %d)",
			resets, want, c1[KindHTTPReset], c1[KindHTTPDropResponse])
	}
}
