package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"soundboost/internal/fleet"
	"soundboost/internal/server"
)

// maxSessions sizes each server's session table small enough that a
// run reaches the steady state of a long-running server — every new
// session evicts the least recently used finished one — within its
// first seconds, and bounds the memory finished sessions hold.
const maxSessions = 8

// cluster is the served system of one workload: servers (and, for
// fleet-stream, the gateway) listening on loopback, all in this process.
type cluster struct {
	entry string // base URL the clients call

	servers []*server.Server
	gw      *fleet.Gateway
	https   []*http.Server // replicas first, gateway last
	gwTr    *http.Transport
	bases   []string
	// journals are the servers' journal directories ("" without one).
	journals []string
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed at shutdown
	return hs, "http://" + ln.Addr().String(), nil
}

// startCluster brings up the workload's servers under dir. With tr set,
// every server and the gateway are wrapped by its handler and the
// gateway's outbound calls by its transport.
func startCluster(workload string, l *lab, dir string, tr *tracer) (*cluster, error) {
	c := &cluster{}
	replicas := 1
	if workload == "fleet-stream" {
		replicas = 3
	}
	for i := 0; i < replicas; i++ {
		cfg := server.Config{MaxSessions: maxSessions}
		if workload != "batch-incident" {
			cfg.JournalDir = filepath.Join(dir, fmt.Sprintf("r%d", i))
		}
		srv, err := server.New(l.an, cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.journals = append(c.journals, cfg.JournalDir)
		var h http.Handler = srv
		if tr != nil {
			h = tr.handler("server", srv)
		}
		hs, base, err := listen(h)
		if err != nil {
			c.close()
			return nil, err
		}
		c.https = append(c.https, hs)
		c.bases = append(c.bases, base)
	}
	c.entry = c.bases[0]
	if workload != "fleet-stream" {
		return c, nil
	}
	c.gwTr = &http.Transport{MaxIdleConnsPerHost: 4}
	var rt http.RoundTripper = c.gwTr
	if tr != nil {
		rt = &transport{t: tr, next: c.gwTr}
	}
	state := filepath.Join(dir, "gateway")
	if err := os.MkdirAll(state, 0o755); err != nil {
		c.close()
		return nil, err
	}
	reps := make([]fleet.Replica, len(c.bases))
	for i, b := range c.bases {
		reps[i] = fleet.Replica{Name: fmt.Sprintf("r%d", i), BaseURL: b, JournalDir: c.journals[i]}
	}
	gw, err := fleet.New(fleet.Config{
		Replicas:    reps,
		Replication: 2,
		StatePath:   filepath.Join(state, "state.json"),
		Transport:   rt,
		Seed:        1,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = gw
	var h http.Handler = gw
	if tr != nil {
		h = tr.handler("gateway", gw)
	}
	hs, base, err := listen(h)
	if err != nil {
		c.close()
		return nil, err
	}
	c.https = append(c.https, hs)
	c.entry = base
	return c, nil
}

// close shuts the cluster down cleanly — gateway first, then every
// server's sessions, then the listeners — and reports the journal bytes
// left on disk once every terminal write has landed. It does not remove
// the directory.
func (c *cluster) close() (journalUsage, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if c.gw != nil {
		errs = append(errs, c.gw.Shutdown(ctx))
	}
	for _, s := range c.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	for _, hs := range c.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	if c.gwTr != nil {
		c.gwTr.CloseIdleConnections()
	}
	var usage journalUsage
	for _, j := range c.journals {
		if j == "" {
			continue
		}
		u, err := measureJournal(j)
		errs = append(errs, err)
		usage.add(u)
	}
	return usage, errors.Join(errs...)
}

// journalUsage counts the bytes of the session journals held on disk:
// the owners' own logs and the follower copies.
type journalUsage struct {
	ownerBytes, followerBytes       int64
	ownerSessions, followerSessions int
}

func (u *journalUsage) add(o journalUsage) {
	u.ownerBytes += o.ownerBytes
	u.followerBytes += o.followerBytes
	u.ownerSessions += o.ownerSessions
	u.followerSessions += o.followerSessions
}

// perFlight is the journal footprint of one flight: an average owner
// journal plus an average follower copy (Replication 2 makes one copy
// per session).
func (u journalUsage) perFlight() float64 {
	v := 0.0
	if u.ownerSessions > 0 {
		v += float64(u.ownerBytes) / float64(u.ownerSessions)
	}
	if u.followerSessions > 0 {
		v += float64(u.followerBytes) / float64(u.followerSessions)
	}
	return v
}

// measureJournal sums a server's journal directory. Evicted sessions
// have had their journals removed, so the per-session average is taken
// over the sessions still present.
func measureJournal(dir string) (journalUsage, error) {
	var u journalUsage
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		meta := 0
		if strings.HasSuffix(path, ".meta.json") {
			meta = 1
		}
		if strings.Contains(filepath.ToSlash(path), "/followers/") {
			u.followerBytes += info.Size()
			u.followerSessions += meta
		} else {
			u.ownerBytes += info.Size()
			u.ownerSessions += meta
		}
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	return u, err
}
