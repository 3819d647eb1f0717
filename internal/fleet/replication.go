package fleet

import (
	"encoding/json"
	"errors"
	"fmt"

	"soundboost/api"
	"soundboost/internal/httpretry"
)

// Journal replication: the gateway streams every owner-acknowledged
// chunk to R−1 follower replicas (POST /v1/sessions/{gwID}/journal/
// append), so a session's write-ahead log survives the loss of the
// owner AND its disk — exportJournal falls back to the freshest
// follower copy and the replay path reproduces the verdict unchanged.
//
// The gateway drives the stream; replicas never talk to each other.
// Copies are keyed by the gateway session id (fleet-unique), and the
// replication seq is the chunk's position in the owner's accept order —
// independent of the client's own chunk Seq, which optional-idempotency
// clients may not even send. Followers fsync before acking, absorb
// duplicates at or below their high-water mark, and 409 a gap; the
// gateway answers a gap (or a takeover, where the mark is unknown) by
// reseeding the copy from a full live export, under which duplicates
// absorb harmlessly.
//
// Replication is best-effort per chunk and never fails the client: the
// owner's fsynced journal already made the chunk durable, so a follower
// falling behind is a visible (fleet.replication.lag) reduction in
// failure coverage, not an error. Appends ride a tighter retry budget
// than client forwarding — the client is waiting.

// pickFollowers selects up to Replication−1 healthy followers for a
// session: its ring successors after the owner, in preference order.
func (g *Gateway) pickFollowers(gwID, owner string) []string {
	n := g.cfg.Replication - 1
	if n <= 0 {
		return nil
	}
	var out []string
	for _, name := range g.ring.Successors(gwID, len(g.replicas)) {
		if len(out) >= n {
			break
		}
		if name != owner && g.health.Up(name) {
			out = append(out, name)
		}
	}
	return out
}

// appendFollower replicates one chunk to one follower.
func (g *Gateway) appendFollower(rt *route, follower string, seq int, chunk api.FramesRequest) error {
	body, err := json.Marshal(api.JournalAppend{
		SchemaVersion: api.Version,
		Seq:           seq,
		Request:       rt.req,
		Chunk:         chunk,
	})
	if err != nil {
		return err
	}
	var resp api.JournalAppendResponse
	return g.repClient.Do("POST",
		g.base(follower)+"/"+api.Version+"/sessions/"+rt.gwID+"/journal/append",
		body, &resp)
}

// replicateLocked streams one newly owner-acknowledged chunk to the
// session's followers. Caller holds rt.mu; duplicate is the owner's
// verdict on the chunk (an absorbed resend carries nothing new — unless
// a reseed is pending, in which case the full export covers it).
func (g *Gateway) replicateLocked(rt *route, chunk api.FramesRequest, duplicate bool) {
	if g.cfg.Replication <= 1 {
		return
	}
	if rt.needReseed {
		// The copies' high-water marks are unknown (gateway takeover) or
		// known-holed (a follower 409'd a gap): rebuild them from a full
		// live export, which includes this chunk too.
		exp, err := g.liveExport(rt)
		if err != nil {
			replicationErrors.Inc()
			g.logf("session %s: reseed export failed: %v", rt.gwID, err)
			return
		}
		g.seedFollowersLocked(rt, exp)
		return
	}
	if duplicate {
		return
	}
	rt.repSeq++
	for _, f := range rt.followers {
		if f == rt.replica || !g.health.Up(f) {
			continue // lag accrues; a later reseed or append catches up
		}
		if err := g.appendFollower(rt, f, rt.repSeq, chunk); err != nil {
			replicationErrors.Inc()
			var se *httpretry.StatusError
			if errors.As(err, &se) && se.Code == api.CodeConflict {
				// The follower's copy has a hole (it restarted, or we
				// did): schedule a full reseed rather than papering over
				// the gap.
				rt.needReseed = true
			}
			g.logf("session %s: replicate seq %d to %s failed: %v", rt.gwID, rt.repSeq, f, err)
			continue
		}
		rt.repAcked[f] = rt.repSeq
		replicationAppends.Inc()
	}
	g.updateLagLocked(rt)
}

// seedFollowersLocked replays a full journal export into every
// follower, bringing each copy to the owner's high-water mark.
// Duplicates absorb on the follower side, so seeding over a partial
// copy is safe. Caller holds rt.mu.
func (g *Gateway) seedFollowersLocked(rt *route, exp api.SessionJournal) {
	if g.cfg.Replication <= 1 {
		return
	}
	if len(rt.followers) == 0 {
		rt.followers = g.pickFollowers(rt.gwID, rt.replica)
	}
	if rt.repAcked == nil {
		rt.repAcked = make(map[string]int, len(rt.followers))
	}
	rt.repSeq = len(exp.Chunks)
	rt.needReseed = false
	for _, f := range rt.followers {
		if f == rt.replica || !g.health.Up(f) {
			continue
		}
		seeded := true
		for i, c := range exp.Chunks {
			if err := g.appendFollower(rt, f, i+1, c); err != nil {
				replicationErrors.Inc()
				g.logf("session %s: seed chunk %d to %s failed: %v", rt.gwID, i+1, f, err)
				seeded = false
				break
			}
		}
		if seeded {
			rt.repAcked[f] = rt.repSeq
			replicationAppends.Add(int64(len(exp.Chunks)))
		}
	}
	g.updateLagLocked(rt)
}

// updateLagLocked records the session's replication lag (owner
// high-water mark minus the slowest follower's) and refreshes the
// fleet-wide behind count. Caller holds rt.mu.
func (g *Gateway) updateLagLocked(rt *route) {
	lag := 0
	for _, f := range rt.followers {
		if f == rt.replica {
			continue
		}
		if l := rt.repSeq - rt.repAcked[f]; l > lag {
			lag = l
		}
	}
	replicationLag.Observe(float64(lag))
	switch {
	case lag > 0 && rt.prevLag == 0:
		replicationBehind.Add(1)
	case lag == 0 && rt.prevLag > 0:
		replicationBehind.Add(-1)
	}
	rt.prevLag = lag
}

// liveExport fetches the session's journal from its current owner.
func (g *Gateway) liveExport(rt *route) (api.SessionJournal, error) {
	var exp api.SessionJournal
	err := g.client.Do("GET", g.base(rt.replica)+"/"+api.Version+"/sessions/"+rt.backendID+"/journal", nil, &exp)
	return exp, err
}

// followerExport fetches the freshest follower copy of the session's
// journal — the failover source when the owner and its disk are both
// gone. Copies are keyed by gateway id and live behind the same journal
// route; the one with the most chunks wins (followers can lag, never
// lead, the owner).
func (g *Gateway) followerExport(rt *route) (api.SessionJournal, error) {
	var (
		best  api.SessionJournal
		found bool
		errs  []error
	)
	for _, f := range rt.followers {
		if f == rt.replica || !g.health.Up(f) {
			continue
		}
		var exp api.SessionJournal
		if err := g.client.Do("GET", g.base(f)+"/"+api.Version+"/sessions/"+rt.gwID+"/journal", nil, &exp); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", f, err))
			continue
		}
		if !found || len(exp.Chunks) > len(best.Chunks) {
			best, found = exp, true
		}
	}
	if !found {
		return best, fmt.Errorf("fleet: no follower copy of %s available: %v", rt.gwID, errs)
	}
	return best, nil
}
