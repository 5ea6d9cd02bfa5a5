//! The one resumable link: the fault state machine every remote sender
//! runs on (DESIGN.md §5d).
//!
//! A link is a connection slot that is dialled on demand, torn down on
//! any failure and redialled under a [`FaultPolicy`]: a bounded retry
//! budget with [`Backoff`] sleeps between attempts ([`Link::send`]), or —
//! for callers that must never sleep — at most one dial per backoff
//! window ([`Link::offer`]). It counts retries, reconnects and deadline
//! misses and mirrors them to `rtobs`. It knows nothing of sockets,
//! frames or queues; those belong to its owners
//! ([`RemotePort`](crate::remote::RemotePort), which
//! [`FailoverSender`](crate::membership::FailoverSender) retargets, and
//! `rtcorba::chaos::ReconnectingConn`).
//!
//! Two structs, so that an owner needs one lock: [`Link`] is the shared
//! half, readable without a lock; [`LinkState`] the mutable half, kept
//! under whatever mutex already guards the owner's own state.
//!
//! [`FaultPolicy::worst_case_blocking`] is enforced here and only here:
//! `send` makes at most `max_retries + 1` attempts and sleeps at most
//! `backoff_cap` between two of them; an attempt is one dial and one
//! operation, which the owner bounds with the policy's deadlines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use rtobs::{CounterId, EventKind, HistId, Observer};
use rtplatform::fault::{Backoff, FaultPolicy};

struct LinkObs {
    obs: Arc<Observer>,
    entity: u32,
    retries: CounterId,
    reconnects: CounterId,
    deadline_misses: CounterId,
    backoff_ns: HistId,
}

/// The shared half of a link: its policy, its fault counters and the
/// observer they are mirrored to.
pub struct Link {
    policy: FaultPolicy,
    retries: AtomicU64,
    reconnects: AtomicU64,
    deadline_misses: AtomicU64,
    obs: OnceLock<LinkObs>,
}

/// The mutable half of a link: the connection slot and retry schedule.
pub struct LinkState<C> {
    conn: Option<C>,
    backoff: Backoff,
    /// [`Link::offer`] dials no earlier than this.
    retry_after: Option<Instant>,
    /// A dial has succeeded before, so the next one is a *re*connect.
    dialed: bool,
}

impl<C> LinkState<C> {
    /// The live connection, if the link is up.
    pub fn conn(&self) -> Option<&C> {
        self.conn.as_ref()
    }

    /// Empties the slot, so the next operation redials.
    pub fn tear_down(&mut self) -> Option<C> {
        self.conn.take()
    }
}

impl Link {
    /// A link governed by `policy`, with all counters at zero.
    pub fn new(policy: FaultPolicy) -> Link {
        Link {
            policy,
            retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            obs: OnceLock::new(),
        }
    }

    /// A disconnected state for this link; `seed` drives backoff jitter.
    pub fn state<C>(&self, seed: u64) -> LinkState<C> {
        LinkState {
            conn: None,
            backoff: Backoff::new(&self.policy, seed),
            retry_after: None,
            dialed: false,
        }
    }

    /// The policy this link enforces.
    pub fn policy(&self) -> &FaultPolicy {
        &self.policy
    }

    /// Mirrors the counters into `obs` — `remote_retries_total`,
    /// `remote_reconnects_total`, `remote_deadline_misses_total`, the
    /// `remote_retry_backoff_ns` histogram — and journals each fault
    /// under `entity`. Call at most once; later calls are ignored.
    pub fn set_observer(&self, obs: &Arc<Observer>, entity: &str) {
        let _ = self.obs.set(LinkObs {
            entity: obs.register_entity(entity),
            retries: obs.counter("remote_retries_total"),
            reconnects: obs.counter("remote_reconnects_total"),
            deadline_misses: obs.counter("remote_deadline_misses_total"),
            backoff_ns: obs.histogram("remote_retry_backoff_ns"),
            obs: Arc::clone(obs),
        });
    }

    /// The attached observer and this link's entity id in it.
    pub fn observer(&self) -> Option<(&Arc<Observer>, u32)> {
        self.obs.get().map(|o| (&o.obs, o.entity))
    }

    /// Failed attempts that consumed retry budget.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Successful dials after the first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Operations that missed their deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses.load(Ordering::Relaxed)
    }

    /// Counts an operation that ran into `deadline`. The owner reports
    /// it: the link cannot tell a timeout from any other generic `E`.
    pub fn note_deadline_miss(&self, deadline: Duration) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.obs.inc(o.deadline_misses);
            let ns = deadline.as_nanos() as u64;
            o.obs.record(EventKind::RemoteDeadlineMiss, o.entity, ns);
        }
    }

    /// Counts a failed attempt and draws the delay before the next one.
    fn note_retry<C>(&self, st: &mut LinkState<C>) -> Duration {
        self.retries.fetch_add(1, Ordering::Relaxed);
        let delay = st.backoff.next_delay();
        if let Some(o) = self.obs.get() {
            let ns = delay.as_nanos() as u64;
            o.obs.inc(o.retries);
            o.obs.observe(o.backoff_ns, ns);
            o.obs.record(EventKind::RemoteRetry, o.entity, ns);
        }
        delay
    }

    /// Dials and, only if that succeeds, replaces whatever was in the
    /// slot. Every success but the link's first is a reconnect.
    fn dial_into<'s, C, E>(
        &self,
        st: &'s mut LinkState<C>,
        dial: impl FnOnce() -> Result<C, E>,
    ) -> Result<&'s mut C, E> {
        let conn = dial()?;
        st.retry_after = None;
        if std::mem::replace(&mut st.dialed, true) {
            let n = self.reconnects.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(o) = self.obs.get() {
                o.obs.inc(o.reconnects);
                o.obs.record(EventKind::RemoteReconnect, o.entity, n);
            }
        }
        Ok(st.conn.insert(conn))
    }

    /// One attempt: dial if the slot is empty, run `op` on the
    /// connection, tear the connection down if `op` fails.
    fn attempt<C, E>(
        &self,
        st: &mut LinkState<C>,
        dial: impl FnOnce() -> Result<C, E>,
        op: impl FnOnce(&mut C) -> Result<(), E>,
    ) -> Result<(), E> {
        let conn = match st.conn.as_mut() {
            Some(conn) => conn,
            None => self.dial_into(st, dial)?,
        };
        let outcome = op(conn);
        match outcome {
            Ok(()) => st.backoff.reset(),
            Err(_) => st.conn = None,
        }
        outcome
    }

    /// Runs `op` on the connection, redialling and retrying until it
    /// succeeds or the budget — `max_retries + 1` attempts — is spent,
    /// sleeping one backoff delay between attempts.
    ///
    /// # Errors
    ///
    /// The last attempt's error.
    pub fn send<C, E>(
        &self,
        st: &mut LinkState<C>,
        mut dial: impl FnMut() -> Result<C, E>,
        mut op: impl FnMut(&mut C) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut retries_left = self.policy.max_retries;
        loop {
            match self.attempt(st, &mut dial, &mut op) {
                Ok(()) => return Ok(()),
                Err(e) if retries_left == 0 => return Err(e),
                Err(_) => retries_left -= 1,
            }
            std::thread::sleep(self.note_retry(st));
        }
    }

    /// The non-blocking counterpart of [`send`](Link::send): one attempt,
    /// no sleep. While the link is down it is redialled at most once per
    /// backoff window; inside the window this returns `false` without
    /// touching the network. Returns whether `op` ran and succeeded.
    pub fn offer<C, E>(
        &self,
        st: &mut LinkState<C>,
        dial: impl FnOnce() -> Result<C, E>,
        op: impl FnOnce(&mut C) -> Result<(), E>,
    ) -> bool {
        if st.conn.is_none() && st.retry_after.is_some_and(|at| Instant::now() < at) {
            return false;
        }
        let ok = self.attempt(st, dial, op).is_ok();
        if !ok {
            st.retry_after = Some(Instant::now() + self.note_retry(st));
        }
        ok
    }

    /// Points the link at another endpoint: one dial, and only if it
    /// succeeds does the new connection replace the old one (which is
    /// dropped). A failed dial leaves the link exactly as it was.
    ///
    /// # Errors
    ///
    /// The dial's error.
    pub fn retarget<C, E>(
        &self,
        st: &mut LinkState<C>,
        dial: impl FnOnce() -> Result<C, E>,
    ) -> Result<(), E> {
        self.dial_into(st, dial).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// An in-memory connection: the number of the dial that made it.
    type Fake = u32;

    /// No backoff at all, so `send` never really sleeps.
    fn policy(max_retries: u32) -> FaultPolicy {
        FaultPolicy {
            max_retries,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            ..FaultPolicy::default()
        }
    }

    /// A dialler that counts its calls and succeeds while `up` is set.
    fn dialler<'a>(
        dials: &'a Cell<u32>,
        up: &'a Cell<bool>,
    ) -> impl FnMut() -> Result<Fake, ()> + 'a {
        move || {
            dials.set(dials.get() + 1);
            up.get().then(|| dials.get()).ok_or(())
        }
    }

    /// An operation that fails its first `n` calls.
    fn failing(n: u32) -> impl FnMut(&mut Fake) -> Result<(), ()> {
        let mut left = n;
        move |_| match left.checked_sub(1) {
            Some(l) => {
                left = l;
                Err(())
            }
            None => Ok(()),
        }
    }

    #[test]
    fn budget_is_exactly_max_retries_plus_one_attempts() {
        let link = Link::new(policy(3));
        let mut st = link.state::<Fake>(1);
        let (dials, up) = (Cell::new(0), Cell::new(false));
        // Every dial fails: four dials, three of them retries.
        assert!(link
            .send(&mut st, dialler(&dials, &up), failing(0))
            .is_err());
        assert_eq!((dials.get(), link.retries()), (4, 3));
        // Every operation fails: again four, each on a fresh connection.
        up.set(true);
        assert!(link
            .send(&mut st, dialler(&dials, &up), failing(9))
            .is_err());
        assert_eq!((dials.get(), link.retries()), (8, 6));
        // Three failures fit the budget; the fourth attempt succeeds.
        link.send(&mut st, dialler(&dials, &up), failing(3))
            .unwrap();
        assert_eq!(link.retries(), 9);
        // A zero budget is one attempt.
        let link = Link::new(policy(0));
        assert!(link
            .send(&mut link.state(1), dialler(&dials, &up), failing(1))
            .is_err());
        assert_eq!(link.retries(), 0);
    }

    #[test]
    fn first_dial_is_not_a_reconnect_and_failure_tears_down() {
        let link = Link::new(policy(2));
        let mut st = link.state::<Fake>(1);
        let (dials, up) = (Cell::new(0), Cell::new(true));
        assert!(st.conn().is_none(), "a link starts disconnected");
        link.send(&mut st, dialler(&dials, &up), failing(0))
            .unwrap();
        link.send(&mut st, dialler(&dials, &up), failing(0))
            .unwrap();
        assert_eq!(st.conn(), Some(&1), "a healthy link is reused");
        assert_eq!(link.reconnects(), 0, "the first dial is a connect");
        // One failed operation drops the connection; the retry redials.
        link.send(&mut st, dialler(&dials, &up), failing(1))
            .unwrap();
        assert_eq!(st.conn(), Some(&2));
        assert_eq!((link.retries(), link.reconnects()), (1, 1));
        // With the budget spent the slot stays empty.
        assert!(link
            .send(&mut st, dialler(&dials, &up), failing(9))
            .is_err());
        assert!(st.conn().is_none(), "a failed link holds no connection");
    }

    #[test]
    fn backoff_grows_with_failures_and_resets_on_success() {
        // Delays of at most a microsecond: growth is visible in the
        // journal while the sleeps stay negligible.
        let link = Link::new(FaultPolicy {
            max_retries: 8,
            backoff_base: Duration::from_nanos(1),
            backoff_cap: Duration::from_micros(1),
            ..FaultPolicy::default()
        });
        let obs = Observer::new();
        link.set_observer(&obs, "remote:test");
        let delays = || -> Vec<u64> {
            let retries = |e: &rtobs::Event| e.kind == EventKind::RemoteRetry;
            obs.events()
                .iter()
                .filter(|e| retries(e))
                .map(|e| e.payload)
                .collect()
        };
        let mut st = link.state::<Fake>(7);
        let (dials, up) = (Cell::new(0), Cell::new(true));
        assert!(link
            .send(&mut st, dialler(&dials, &up), failing(9))
            .is_err());
        let grown = delays();
        assert_eq!(grown.len(), 8);
        assert!(grown[0] < 3, "first draw is uniform in [base, 3*base)");
        assert!(grown.iter().any(|&d| d >= 9), "never grew: {grown:?}");
        // One success, then the next failure starts from base again.
        link.send(&mut st, dialler(&dials, &up), failing(0))
            .unwrap();
        link.send(&mut st, dialler(&dials, &up), failing(1))
            .unwrap();
        assert!(delays()[8] < 3, "success must reset the schedule");
        let mirrored = obs.counter_value(obs.counter("remote_retries_total"));
        assert_eq!(mirrored, link.retries());
    }

    #[test]
    fn offer_dials_at_most_once_per_window_and_never_sleeps() {
        // An hour-long window: if `offer` slept, this test would hang.
        let link = Link::new(FaultPolicy {
            backoff_base: Duration::from_secs(3600),
            backoff_cap: Duration::from_secs(3600),
            ..FaultPolicy::default()
        });
        let mut st = link.state::<Fake>(1);
        let (dials, up) = (Cell::new(0), Cell::new(false));
        for _ in 0..5 {
            assert!(!link.offer(&mut st, dialler(&dials, &up), failing(0)));
        }
        assert_eq!((dials.get(), link.retries()), (1, 1), "one dial per window");
        // A live connection is used whatever the window says, and a
        // failed operation opens a window of its own.
        up.set(true);
        link.retarget(&mut st, dialler(&dials, &up)).unwrap();
        assert!(link.offer(&mut st, dialler(&dials, &up), failing(0)));
        assert!(!link.offer(&mut st, dialler(&dials, &up), failing(1)));
        assert!(!link.offer(&mut st, dialler(&dials, &up), failing(0)));
        assert_eq!(dials.get(), 2, "down and inside the window: no dial");
    }

    #[test]
    fn retarget_swaps_only_on_a_successful_dial() {
        let link = Link::new(policy(0));
        let mut st = link.state::<Fake>(1);
        let (dials, up) = (Cell::new(0), Cell::new(true));
        link.retarget(&mut st, dialler(&dials, &up)).unwrap();
        up.set(false);
        assert!(link.retarget(&mut st, dialler(&dials, &up)).is_err());
        assert_eq!(st.conn(), Some(&1), "a refused retarget changes nothing");
        up.set(true);
        link.retarget(&mut st, dialler(&dials, &up)).unwrap();
        assert_eq!(st.tear_down(), Some(3));
        assert_eq!((link.retries(), link.reconnects()), (0, 1));
    }
}
