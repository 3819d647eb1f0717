package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soundboost/api"
	"soundboost/internal/testfix"
)

// TestGatewayFramesBody pins the gateway's frames hop: an unknown field
// is 400 and a body past MaxBodyBytes is 413 (on the flights route
// too), and an accepted body — pretty-printed here — is journaled as
// sent, newlines blanked, by the owner and, through the replication
// splice, by its follower.
func TestGatewayFramesBody(t *testing.T) {
	fx := testfix.Get(t)
	g, reps := startFleet(t, 3, Config{Replication: 2, MaxBodyBytes: 1 << 20})
	base, gwID := openVia(t, g, fx.Calib[0])

	for _, c := range []struct {
		body   string
		status int
	}{
		{`{"seq":1,"bogus":true}`, http.StatusBadRequest},
		{`{"seq":1,"gps":[{"pos":{"x":1,"w":2}}]}`, http.StatusBadRequest},
		{`{"seq":1` + strings.Repeat(" ", 1<<20) + `}`, http.StatusRequestEntityTooLarge},
	} {
		w := hdo(t, g, "POST", base+"/frames", strings.NewReader(c.body))
		if e := decode[api.Error](t, w, c.status); e.Code != api.CodeBadRequest {
			t.Errorf("body %.40q: code %q, want %q", c.body, e.Code, api.CodeBadRequest)
		}
	}

	// A batch flight upload past the cap is 413 too.
	w := hdo(t, g, "POST", "/"+api.Version+"/flights", strings.NewReader(strings.Repeat("x", 1<<20+1)))
	if e := decode[api.Error](t, w, http.StatusRequestEntityTooLarge); e.Code != api.CodeBadRequest {
		t.Errorf("oversized flight: code %q, want %q", e.Code, api.CodeBadRequest)
	}

	reqs, err := testfix.Frames(fx.Calib[0], 40)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.MarshalIndent(reqs[0], "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if resp := decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", body), http.StatusOK); resp.Duplicate {
		t.Fatal("first chunk acknowledged as a duplicate: a rejected body was accepted")
	}
	want := append(bytes.ReplaceAll(body, []byte{'\n'}, []byte{' '}), '\n')

	rt, ok := g.lookupRoute(gwID)
	if !ok {
		t.Fatalf("no route for %s", gwID)
	}
	rt.mu.Lock()
	owner, backendID, followers := rt.replica, rt.backendID, rt.followers
	rt.mu.Unlock()
	if len(followers) != 1 {
		t.Fatalf("followers = %v, want one at Replication 2", followers)
	}
	dirs := map[string]string{}
	for _, r := range reps {
		dirs[r.name] = r.journalDir
	}
	for _, path := range []string{
		filepath.Join(dirs[owner], backendID+".chunks.jsonl"),
		filepath.Join(dirs[followers[0]], "followers", gwID+".chunks.jsonl"),
	} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s holds %d bytes, want the %d-byte body as sent", path, len(got), len(want))
		}
	}
	hdo(t, g, "POST", base+"/frames", api.FramesRequest{Seq: 2, Close: true})
}
