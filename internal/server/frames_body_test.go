package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"soundboost/api"
)

// TestFramesBodyAdversarial pins how the frames route treats hostile
// bodies: an unknown field is 400, a body past MaxBodyBytes is 413 (on
// the flights route too), and a Content-Length claiming far more than
// the body sends does not make the server reserve the claimed size.
func TestFramesBodyAdversarial(t *testing.T) {
	rate := getFixture(t).calib[0].Audio.SampleRate
	s := newTestServer(t, Config{MaxBodyBytes: 1 << 12})
	created := decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions",
		api.SessionRequest{SampleRateHz: rate}), http.StatusCreated)
	frames := "/v1/sessions/" + created.ID + "/frames"

	errCode(t, do(t, s, "POST", frames, `{"seq":1,"bogus":true}`), http.StatusBadRequest, api.CodeBadRequest)
	errCode(t, do(t, s, "POST", frames, `{"seq":1,"imu":[{"time_seconds":0,"accel":{"q":1}}]}`), http.StatusBadRequest, api.CodeBadRequest)
	big := `{"seq":1,"imu":[` + strings.Repeat(`{"time_seconds":0},`, 300) + `{}]}`
	errCode(t, do(t, s, "POST", frames, big), http.StatusRequestEntityTooLarge, api.CodeBadRequest)
	// A batch flight upload past the cap is 413 too, not unprocessable.
	var flight bytes.Buffer
	if err := getFixture(t).calib[0].Save(&flight); err != nil {
		t.Fatal(err)
	}
	if flight.Len() <= 1<<12 {
		t.Fatalf("flight body %d bytes does not exceed the cap", flight.Len())
	}
	errCode(t, do(t, s, "POST", "/v1/flights", &flight), http.StatusRequestEntityTooLarge, api.CodeBadRequest)
	// None of the rejected bodies was accepted: seq 1 is still next.
	if resp := decode[api.FramesResponse](t, do(t, s, "POST", frames, `{"seq":1}`), http.StatusOK); resp.Duplicate {
		t.Fatal("a rejected body advanced the session's sequence")
	}

	// Declare 200 MiB (under the default 256 MiB cap), send 9 bytes.
	open := newTestServer(t, Config{})
	created = decode[api.SessionResponse](t, do(t, open, "POST", "/v1/sessions",
		api.SessionRequest{SampleRateHz: rate}), http.StatusCreated)
	const claimed = 200 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest("POST", "/v1/sessions/"+created.ID+"/frames", strings.NewReader(`{"seq":1}`))
	req.ContentLength = claimed
	w := httptest.NewRecorder()
	open.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	decode[api.FramesResponse](t, w, http.StatusOK)
	if got := after.TotalAlloc - before.TotalAlloc; got > claimed/4 {
		t.Fatalf("a %d-byte body declaring %d bytes allocated %d bytes", len(`{"seq":1}`), claimed, got)
	}
}
