//! # annoda-federation — networked source servers and remote wrappers
//!
//! The paper's Figure 1 is a *distributed* architecture: wrappers sit in
//! front of remote public databases and the mediator fans subqueries out
//! over the network. The rest of this repository runs that architecture
//! in-process; this crate puts the wire back in:
//!
//! * [`proto`] — the AFED protocol: crc32-framed, versioned,
//!   length-prefixed messages whose payloads reuse the `annoda-persist`
//!   codec, so a shipped subquery result is the same canonical bytes the
//!   WAL would journal (and fusion over it is byte-identical to the
//!   in-process run).
//! * [`session`] — the session layer every AFED peer shares: the
//!   server's accept loop, bounded worker pool, accept-side shedding and
//!   fault injection ([`SessionServer`]); the client's [`dial`]; and the
//!   subscriber's dial → session → backoff thread ([`Subscription`]) that
//!   `annoda-replica` and `annoda-stream` run.
//! * [`server`] — [`SourceServer`]: any [`Wrapper`] behind a socket, the
//!   source-server's handler over a [`SessionServer`] (the
//!   `source-server` binary wraps this).
//! * [`client`] — [`RemoteWrapper`]: a `Wrapper` implementation that
//!   speaks AFED with per-request deadlines, bounded jittered retries,
//!   connection reuse, and a per-source circuit [`breaker`].
//!
//! Failure semantics, end to end: a refusal (bad query, missing
//! capability) is an *answer* and is never retried; a transport loss
//! (connect refused, timeout, torn frame) is retried with backoff, then
//! counted against the source's breaker, and finally surfaced as
//! [`WrapError::Transport`](annoda_wrap::WrapError) — which the mediator
//! degrades into a partial answer that *names* the missing source.
//!
//! [`Wrapper`]: annoda_wrap::Wrapper

pub mod breaker;
pub mod client;
pub mod feed;
pub mod proto;
pub mod server;
pub mod session;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{ClientConfig, RemoteStats, RemoteStatsSnapshot, RemoteWrapper};
pub use feed::{ChangeJournal, FeedWindow, DEFAULT_JOURNAL_CAP};
pub use proto::{ChangeRecord, Message, ProtoError, RefusalKind, RemoteResult};
pub use server::SourceServer;
pub use session::{
    dial, FaultConfig, LagClock, ServerConfig, ServerStats, Session, SessionServer, Subscription,
    TailConfig,
};
