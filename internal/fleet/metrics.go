package fleet

import "soundboost/internal/obs"

// Gateway metrics, gated by obs.Enable (serve with -debug-addr).
// fleet.routed.* splits forwarded requests by destination replica so an
// unbalanced ring shows up in the snapshot; fleet.failover.* counts
// session migrations — attempts, successes, and sessions lost because no
// journal (or no successor) was available.
var (
	sessionsRouted = obs.Default.Counter("fleet.sessions.opened")
	routedTo       = func(replica string) *obs.Counter {
		return obs.Default.Counter("fleet.routed." + replica)
	}
	failoverAttempts = obs.Default.Counter("fleet.failover.attempts")
	failoverSuccess  = obs.Default.Counter("fleet.failover.success")
	failoverFailed   = obs.Default.Counter("fleet.failover.failed")
	// failover.chunks counts journal chunks replayed into successor
	// replicas during migrations.
	failoverChunks = obs.Default.Counter("fleet.failover.chunks")
	replicasUp     = obs.Default.Gauge("fleet.replicas.up")
	// health.transitions counts mark-down + mark-up events (hysteresis
	// already applied).
	healthTransitions = obs.Default.Counter("fleet.health.transitions")

	// failover.from_follower counts migrations whose journal came from a
	// follower copy — the owner and its disk were both gone.
	failoverFromFollower = obs.Default.Counter("fleet.failover.from_follower")
	// replication.* track the gateway-driven journal replication stream:
	// appends are chunk copies acked by followers, errors are appends a
	// follower failed (the session keeps serving; lag shows the debt),
	// lag is a histogram of the owner-to-slowest-follower chunk gap
	// observed at every replication step of every session, and behind
	// gauges how many sessions currently have lag > 0.
	replicationAppends = obs.Default.Counter("fleet.replication.appends")
	replicationErrors  = obs.Default.Counter("fleet.replication.errors")
	replicationBehind  = obs.Default.Gauge("fleet.replication.behind")
	replicationLag     = obs.Default.Histogram("fleet.replication.lag")
	// rebalance.* track rejoin draining: events are up-transitions that
	// started a rebalance pass, moved / skipped split its per-session
	// outcomes (skips: terminal sessions, export or migrate failures,
	// the per-event cap).
	rebalanceEvents  = obs.Default.Counter("fleet.rebalance.events")
	rebalanceMoved   = obs.Default.Counter("fleet.rebalance.moved")
	rebalanceSkipped = obs.Default.Counter("fleet.rebalance.skipped")
	// standby.takeovers counts warm-standby promotions; sessions.parked
	// gauges restored sessions awaiting a live replica (served as 503 +
	// Retry-After until revived).
	standbyTakeovers = obs.Default.Counter("fleet.standby.takeovers")
	sessionsParked   = obs.Default.Gauge("fleet.sessions.parked")
	// state.checkpoints counts routing-state file writes.
	stateCheckpoints = obs.Default.Counter("fleet.state.checkpoints")
)
