//! Shard health: liveness state, failure accounting, and the prober.
//!
//! Each backend shard has one [`ShardState`]: an `up` flag plus a
//! consecutive-failure counter fed by *both* signal sources — the
//! periodic health prober here and the router's own forwarding
//! failures. A shard is marked down after `failure_threshold`
//! consecutive failures (one flaky probe is not an outage) and marked
//! up again by the *first* success (good news needs no quorum: a shard
//! that answered is a shard that can serve).
//!
//! The prober is a single thread that pings every shard each interval
//! with hard connect/read deadlines, so a hung shard costs a bounded
//! slice of the probe cycle, never a wedged prober. Probes use the
//! wire protocol's own `{"op":"ping"}` — a shard is healthy when it
//! speaks the protocol, not merely when it accepts TCP.

use std::sync::Arc;
use std::time::Duration;

use bsched_analyze::json::Json;
use bsched_par::sync::{thread, AtomicBool, AtomicU32, AtomicU64, Mutex, Ordering};

use crate::client::Client;

/// Where a shard sits in the router's membership lifecycle:
/// joining → active → draining → gone (removed from the member list).
///
/// Liveness (`up`) and membership are orthogonal: an Active shard can
/// be down (probe failures) and come back; a Joining shard is up-and
/// -waiting for its first successful probe before it owns keys; a
/// Draining shard is fenced — no new forwards — while in-flight work
/// lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Added but not yet proven reachable; owns no keys.
    Joining,
    /// Full ring member: owns its rendezvous key slice.
    Active,
    /// Fenced: finishes in-flight forwards, accepts no new ones.
    Draining,
}

impl MemberState {
    /// Wire name of the state, as echoed in `/stats` and `members`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MemberState::Joining => "joining",
            MemberState::Active => "active",
            MemberState::Draining => "draining",
        }
    }

    fn from_u32(v: u32) -> MemberState {
        match v {
            0 => MemberState::Joining,
            2 => MemberState::Draining,
            _ => MemberState::Active,
        }
    }

    fn as_u32(self) -> u32 {
        match self {
            MemberState::Joining => 0,
            MemberState::Active => 1,
            MemberState::Draining => 2,
        }
    }
}

/// Health/probe knobs shared by the router and its prober thread.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Consecutive failures (probe or forward) before a shard is
    /// marked down.
    pub failure_threshold: u32,
    /// Probe period per shard.
    pub interval: Duration,
    /// TCP connect deadline for probes and forwards.
    pub connect_timeout: Duration,
    /// Read deadline for a probe's pong / a forward's response line.
    pub read_timeout: Duration,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            failure_threshold: 3,
            interval: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// One backend shard's liveness state and lifetime counters.
pub struct ShardState {
    /// The shard's `host:port` address.
    pub addr: String,
    /// Starts `true`: a fleet boots optimistic and lets evidence mark
    /// shards down, so a slow-starting prober never blanks the fleet.
    up: AtomicBool,
    consecutive_failures: AtomicU32,
    /// Requests this shard answered for the router.
    pub forwarded: AtomicU64,
    /// Requests re-routed *away* because this shard was down/failing.
    pub failed_over: AtomicU64,
    /// Times this shard transitioned up → down.
    pub down_transitions: AtomicU64,
    membership: AtomicU32,
    /// Forwards currently in flight to this shard; drain waits for zero.
    inflight: AtomicU64,
}

impl ShardState {
    /// A fresh, optimistically-up, Active shard.
    #[must_use]
    pub fn new(addr: String) -> ShardState {
        ShardState::with_state(addr, MemberState::Active)
    }

    /// A shard adopted at runtime that has not yet answered a probe; it
    /// owns no keys until the prober promotes it to Active.
    #[must_use]
    pub fn new_joining(addr: String) -> ShardState {
        ShardState::with_state(addr, MemberState::Joining)
    }

    fn with_state(addr: String, state: MemberState) -> ShardState {
        ShardState {
            addr,
            up: AtomicBool::new(true),
            consecutive_failures: AtomicU32::new(0),
            forwarded: AtomicU64::new(0),
            failed_over: AtomicU64::new(0),
            down_transitions: AtomicU64::new(0),
            membership: AtomicU32::new(state.as_u32()),
            inflight: AtomicU64::new(0),
        }
    }

    /// Current liveness belief.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    /// Where this shard sits in the membership lifecycle.
    #[must_use]
    pub fn member_state(&self) -> MemberState {
        MemberState::from_u32(self.membership.load(Ordering::SeqCst))
    }

    /// Moves the shard to a new membership state.
    pub fn set_member_state(&self, state: MemberState) {
        self.membership.store(state.as_u32(), Ordering::SeqCst);
    }

    /// Forwards currently in flight to this shard.
    #[must_use]
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Fences a forward against drain: increments the in-flight count
    /// *then* re-checks membership, so a drainer that observes the
    /// Draining state before the count can never miss this forward.
    /// Returns `false` (count released) when the shard is not Active.
    #[must_use]
    pub fn begin_forward(&self) -> bool {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        if self.member_state() == MemberState::Active {
            true
        } else {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            false
        }
    }

    /// Releases a forward admitted by [`Self::begin_forward`].
    pub fn end_forward(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Records a successful probe or forward: one success rehabilitates,
    /// and promotes a Joining shard to Active (it has now proven it
    /// speaks the protocol, so it may own keys).
    pub fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        if self
            .membership
            .compare_exchange(
                MemberState::Joining.as_u32(),
                MemberState::Active.as_u32(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            eprintln!("bsched-serve: shard {} joined the ring", self.addr);
        }
        if !self.up.swap(true, Ordering::Relaxed) {
            eprintln!("bsched-serve: shard {} is back up", self.addr);
        }
    }

    /// Records a failed probe or forward; marks the shard down at the
    /// threshold. Returns the new consecutive-failure count.
    pub fn record_failure(&self, threshold: u32) -> u32 {
        let n = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= threshold.max(1) && self.up.swap(false, Ordering::Relaxed) {
            self.down_transitions.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "bsched-serve: shard {} marked down after {n} consecutive failures",
                self.addr
            );
        }
        n
    }
}

/// One protocol-level liveness probe: connect, `{"op":"ping"}`, expect
/// a pong — all under `cfg`'s deadlines and the client's line cap, so a
/// peer that floods bytes without a newline fails the probe instead of
/// growing the prober's buffer.
#[must_use]
pub fn ping_shard(addr: &str, cfg: &HealthConfig) -> bool {
    Client::connect_with_deadline(addr, cfg.connect_timeout, cfg.read_timeout)
        .and_then(|mut shard| shard.round_trip("{\"op\":\"ping\"}"))
        .is_ok_and(|reply| reply.get("pong").and_then(Json::as_bool) == Some(true))
}

/// Runs the prober loop until `stop` is set or SIGTERM/SIGINT arrives
/// (see `stopping`). Each tick re-snapshots the member list, so shards
/// added or drained at runtime are picked up without restarting the
/// router, probes every member and feeds the outcome into its
/// [`ShardState`]; a Joining shard's first successful probe promotes it
/// to Active. The `shard-down` fault (keyed by `shard<index>|<addr>`
/// cell context) turns a probe into a failure without touching the
/// socket, so chaos plans can take a shard "down" deterministically.
pub fn prober_loop(members: &Mutex<Vec<Arc<ShardState>>>, cfg: &HealthConfig, stop: &AtomicBool) {
    while !stopping(stop) {
        let snapshot = members.lock().unwrap().clone();
        probe_tick(&snapshot, cfg);
        sleep_sliced(cfg.interval, stop);
    }
}

fn probe_tick(shards: &[Arc<ShardState>], cfg: &HealthConfig) {
    for (index, shard) in shards.iter().enumerate() {
        let injected_down =
            bsched_faults::with_cell_context(&format!("shard{index}|{}", shard.addr), 0, || {
                bsched_faults::fault_point!(bsched_faults::Site::ShardDown)
            })
            .is_some();
        if !injected_down && ping_shard(&shard.addr, cfg) {
            shard.record_success();
        } else {
            shard.record_failure(cfg.failure_threshold);
        }
    }
}

/// The prober's drain condition, the same as the router's accept loop:
/// the owner's stop flag, or a SIGTERM/SIGINT the signal handler saw.
/// Without the signal half a signalled router's accept loop exits but
/// `Router::join` waits on the prober forever.
fn stopping(stop: &AtomicBool) -> bool {
    stop.load(Ordering::Relaxed) || crate::server::signalled()
}

/// Sleeps in small slices so shutdown is prompt even with a long probe
/// interval.
fn sleep_sliced(total: Duration, stop: &AtomicBool) {
    let mut remaining = total;
    while remaining > Duration::ZERO && !stopping(stop) {
        let slice = remaining.min(Duration::from_millis(20));
        thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_debounces_single_failures() {
        let shard = ShardState::new("127.0.0.1:1".to_owned());
        assert!(shard.is_up());
        shard.record_failure(3);
        shard.record_failure(3);
        assert!(shard.is_up(), "below threshold stays up");
        shard.record_failure(3);
        assert!(!shard.is_up(), "threshold reached");
        assert_eq!(shard.down_transitions.load(Ordering::Relaxed), 1);
        shard.record_failure(3);
        assert_eq!(
            shard.down_transitions.load(Ordering::Relaxed),
            1,
            "already down: no second transition"
        );
        shard.record_success();
        assert!(shard.is_up(), "one success rehabilitates");
        assert_eq!(shard.consecutive_failures.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn forward_fencing_tracks_membership() {
        let shard = ShardState::new("127.0.0.1:1".to_owned());
        assert_eq!(shard.member_state(), MemberState::Active);
        assert!(shard.begin_forward());
        assert_eq!(shard.inflight(), 1);
        shard.set_member_state(MemberState::Draining);
        assert!(!shard.begin_forward(), "draining shards are fenced");
        assert_eq!(shard.inflight(), 1, "fenced attempt released its slot");
        shard.end_forward();
        assert_eq!(shard.inflight(), 0);

        let joiner = ShardState::new_joining("127.0.0.1:2".to_owned());
        assert_eq!(joiner.member_state(), MemberState::Joining);
        assert!(!joiner.begin_forward(), "joining shards own no keys yet");
        joiner.record_success();
        assert_eq!(
            joiner.member_state(),
            MemberState::Active,
            "first success promotes"
        );
        assert!(joiner.begin_forward());
        joiner.end_forward();
    }

    #[test]
    fn ping_fails_fast_on_a_dead_address() {
        // A bound-then-dropped listener's port refuses connections.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let cfg = HealthConfig {
            connect_timeout: Duration::from_millis(100),
            ..HealthConfig::default()
        };
        assert!(!ping_shard(&addr, &cfg));
    }

    #[test]
    fn ping_gives_up_on_a_peer_that_never_sends_a_newline() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let flooder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let junk = [b'x'; 64 * 1024];
            // Streams until the prober hangs up.
            while stream.write_all(&junk).is_ok() {}
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let prober = std::thread::spawn(move || {
            tx.send(ping_shard(&addr, &HealthConfig::default()))
                .unwrap();
        });
        let answered = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the probe must give up within 2 s");
        assert!(!answered, "a newline-free flood is not a pong");
        prober.join().unwrap();
        flooder.join().unwrap();
    }
}
