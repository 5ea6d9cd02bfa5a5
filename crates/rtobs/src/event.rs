//! Typed flight-recorder events.
//!
//! Every event is five 64-bit words in the journal ring: a sequence tag,
//! a packed `(kind, subject)` word, a timestamp, one free payload word,
//! and a packed span-context word (see
//! [`SpanCtx::pack`](crate::SpanCtx::pack); `0` = no trace). The
//! meanings of `subject`/`payload` per kind are documented on
//! [`EventKind`]; subjects are entity ids handed out by
//! [`Observer::register_entity`](crate::Observer::register_entity) so a
//! trace can be rendered with human-readable names.

/// What happened. The numeric values are the wire encoding inside the
/// journal and must stay stable within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum EventKind {
    /// A message was admitted at an in-port: the start of its hop.
    /// `subject` = port entity, `payload` = message priority. The span
    /// word carries the hop's own span; `t_ns` is the admission time.
    PortEnqueue = 1,
    /// A queued message left its buffer for a worker. `subject` = port
    /// entity, `payload` = queue wait in nanoseconds. Synchronous hops
    /// skip this event (their wait is ~0 by construction).
    PortDequeue = 2,
    /// A handler invocation began, after the hold and the scope entry.
    /// `subject` = port entity, `payload` = message priority.
    HandlerStart = 3,
    /// A handler panicked. `subject` = port entity (or pool entity when
    /// raised by the thread pool).
    HandlerPanic = 5,
    /// A message was rejected because the port buffer was full.
    /// `subject` = port entity, `payload` = configured buffer size.
    BufferDrop = 6,
    /// A scoped-memory region was entered. `subject` = region id.
    ScopeEnter = 7,
    /// A scoped-memory region was exited. `subject` = region id.
    ScopeExit = 8,
    /// A scoped-memory region was reclaimed (pin count hit zero).
    /// `subject` = region id, `payload` = bytes freed.
    ScopeReclaim = 9,
    /// A scope was leased from a scope pool. `subject` = pool entity,
    /// `payload` = scopes currently leased.
    PoolAcquire = 10,
    /// A leased scope was returned to its pool. `subject` = pool entity,
    /// `payload` = scopes currently leased.
    PoolRelease = 11,
    /// A GIOP request left the client: the start of the invocation's
    /// root span, which the span word carries. `subject` = operation
    /// entity, `payload` = request id.
    GiopRequest = 12,
    /// A GIOP reply was matched to its request. `subject` = operation
    /// entity, `payload` = round-trip nanoseconds.
    GiopReply = 13,
    /// A worker thread inherited a message priority for the duration of
    /// a job. `subject` = pool entity, `payload` = inherited priority.
    PriorityInherit = 14,
    /// A remote send/connect attempt failed and will be retried.
    /// `subject` = remote-link entity, `payload` = backoff delay in
    /// nanoseconds before the next attempt.
    RemoteRetry = 15,
    /// A remote connection was re-established after a failure.
    /// `subject` = remote-link entity, `payload` = reconnects so far.
    RemoteReconnect = 16,
    /// A message was shed by the degradation policy (retry budget
    /// exhausted or resend queue overflow). `subject` = remote-link
    /// entity, `payload` = messages shed so far.
    RemoteShed = 17,
    /// A remote operation missed its deadline. `subject` = remote-link
    /// entity, `payload` = the deadline in nanoseconds.
    RemoteDeadlineMiss = 18,
    /// A hop finished. `subject` = port or operation entity,
    /// `payload` = remaining deadline budget as `i64` bits (negative =
    /// overrun; `i64::MIN` when the span carried no deadline).
    SpanEnd = 21,
    /// A traced invocation was shipped across a process boundary.
    /// `subject` = link or operation entity, `payload` = remaining
    /// budget in nanoseconds granted to the peer.
    SpanRemoteSend = 22,
    /// A remote trace context was adopted on the receiving side.
    /// `subject` = link or operation entity, `payload` = budget in
    /// nanoseconds granted by the sender. The span word carries the
    /// newly minted local hop whose `parent` is the sender's span id.
    SpanRemoteRecv = 23,
    /// A message was shed by per-priority-band admission control at a
    /// local port: occupancy was over the band's watermark while the
    /// buffer still had capacity reserved for higher bands. `subject` =
    /// port entity, `payload` = message priority.
    PortShed = 24,
    /// A peer node missed enough consecutive heartbeats to be
    /// suspected. `subject` = member entity, `payload` = consecutive
    /// misses.
    MemberSuspect = 25,
    /// A suspected peer was declared down. `subject` = member entity,
    /// `payload` = nanoseconds since the last good heartbeat.
    MemberDown = 26,
    /// A peer answered a heartbeat again (fresh or recovered).
    /// `subject` = member entity, `payload` = round-trip nanoseconds.
    MemberAlive = 27,
    /// Failover to a replica endpoint began. `subject` = remote-link
    /// entity, `payload` = index of the replica being tried.
    FailoverStart = 28,
    /// Failover completed: traffic flows to the replica. `subject` =
    /// remote-link entity, `payload` = failover latency in nanoseconds.
    FailoverComplete = 29,
    /// A logical name was rebound to a new address in the naming
    /// service. `subject` = member or link entity, `payload` = the
    /// naming shard that served the rebind.
    NamingRebind = 30,
    /// A message an asynchronous in-port had accepted could not be
    /// delivered on the worker (target not activatable, handler error):
    /// accepted, then lost — unlike [`EventKind::BufferDrop`] and
    /// [`EventKind::PortShed`], which refuse at admission. `subject` =
    /// port entity, `payload` = buffer occupancy at that instant.
    Undeliverable = 31,
    /// A reactor connection's outbox reached its cap: the peer stopped
    /// reading its replies, so the connection is closed instead of
    /// queueing without bound. `subject` = reactor entity, `payload` =
    /// the connection's token.
    OutboxFull = 32,
}

impl EventKind {
    /// Decodes the wire value; `None` for unknown values (e.g. from a
    /// torn slot that validation already rejected).
    pub fn from_u32(v: u32) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::PortEnqueue,
            2 => EventKind::PortDequeue,
            3 => EventKind::HandlerStart,
            5 => EventKind::HandlerPanic,
            6 => EventKind::BufferDrop,
            7 => EventKind::ScopeEnter,
            8 => EventKind::ScopeExit,
            9 => EventKind::ScopeReclaim,
            10 => EventKind::PoolAcquire,
            11 => EventKind::PoolRelease,
            12 => EventKind::GiopRequest,
            13 => EventKind::GiopReply,
            14 => EventKind::PriorityInherit,
            15 => EventKind::RemoteRetry,
            16 => EventKind::RemoteReconnect,
            17 => EventKind::RemoteShed,
            18 => EventKind::RemoteDeadlineMiss,
            21 => EventKind::SpanEnd,
            22 => EventKind::SpanRemoteSend,
            23 => EventKind::SpanRemoteRecv,
            24 => EventKind::PortShed,
            25 => EventKind::MemberSuspect,
            26 => EventKind::MemberDown,
            27 => EventKind::MemberAlive,
            28 => EventKind::FailoverStart,
            29 => EventKind::FailoverComplete,
            30 => EventKind::NamingRebind,
            31 => EventKind::Undeliverable,
            32 => EventKind::OutboxFull,
            _ => return None,
        })
    }

    /// Short lowercase label used by the trace renderer.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::PortEnqueue => "port.enqueue",
            EventKind::PortDequeue => "port.dequeue",
            EventKind::HandlerStart => "handler.start",
            EventKind::HandlerPanic => "handler.panic",
            EventKind::BufferDrop => "buffer.drop",
            EventKind::ScopeEnter => "scope.enter",
            EventKind::ScopeExit => "scope.exit",
            EventKind::ScopeReclaim => "scope.reclaim",
            EventKind::PoolAcquire => "pool.acquire",
            EventKind::PoolRelease => "pool.release",
            EventKind::GiopRequest => "giop.request",
            EventKind::GiopReply => "giop.reply",
            EventKind::PriorityInherit => "prio.inherit",
            EventKind::RemoteRetry => "remote.retry",
            EventKind::RemoteReconnect => "remote.reconnect",
            EventKind::RemoteShed => "remote.shed",
            EventKind::RemoteDeadlineMiss => "remote.deadline_miss",
            EventKind::SpanEnd => "span.end",
            EventKind::SpanRemoteSend => "span.remote_send",
            EventKind::SpanRemoteRecv => "span.remote_recv",
            EventKind::PortShed => "port.shed",
            EventKind::MemberSuspect => "member.suspect",
            EventKind::MemberDown => "member.down",
            EventKind::MemberAlive => "member.alive",
            EventKind::FailoverStart => "failover.start",
            EventKind::FailoverComplete => "failover.complete",
            EventKind::NamingRebind => "naming.rebind",
            EventKind::Undeliverable => "port.undeliverable",
            EventKind::OutboxFull => "reactor.outbox_full",
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (monotone across all threads).
    pub seq: u64,
    /// Nanoseconds since the observer's epoch.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Entity the event is about (port, region, pool, operation).
    pub subject: u32,
    /// Kind-specific payload word.
    pub payload: u64,
    /// Packed span context ([`SpanCtx::pack`](crate::SpanCtx::pack));
    /// `0` when the event happened outside any trace.
    pub span: u64,
}
