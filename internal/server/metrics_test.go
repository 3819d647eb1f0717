package server

import (
	"fmt"
	"net/http"
	"testing"

	"soundboost/api"
	"soundboost/internal/obs"
)

// registryNames counts the metric names in the process-wide registry.
func registryNames() int {
	s := obs.Default.Snapshot()
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms) + len(s.Timers)
}

// TestSessionMetricNamesBounded pins bounded metric cardinality on the
// session surface: flight labels are client-chosen, so opening sessions
// under any number of distinct labels must not mint registry names.
func TestSessionMetricNamesBounded(t *testing.T) {
	f := getFixture(t).calib[0]
	s := newTestServer(t, Config{})
	open := func(flight string) {
		t.Helper()
		decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions", api.SessionRequest{
			Flight:       flight,
			SampleRateHz: f.Audio.SampleRate,
		}), http.StatusCreated)
	}
	open("warm-up")
	before := registryNames()
	for i := 0; i < 20; i++ {
		open(fmt.Sprintf("tenant-%02d/%s", i, f.Name))
	}
	if after := registryNames(); after != before {
		t.Errorf("20 sessions with distinct flight prefixes grew the registry from %d to %d names", before, after)
	}
}
