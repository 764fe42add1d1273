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
//! * [`runtime`] — the connection runtime every socket server here and
//!   in `annoda-serve` runs on: one blocking acceptor, one thread per
//!   connection up to a cap, admit/shed/serve hooks ([`Service`]), and
//!   a registry of live sockets whose read halves shutdown closes.
//! * [`session`] — the session layer every AFED peer shares: the
//!   server's per-session loop, accept-side shedding and fault
//!   injection ([`SessionServer`]); the client's [`dial`]; and the
//!   subscriber's dial → session → backoff thread ([`Subscription`])
//!   that `annoda-stream`'s feed tailer runs.
//! * [`feed`] — [`ChangeJournal`], a record-level change feed, and
//!   [`FeedSession`], the one handler that serves it: a source-server's
//!   and a replication leader's feeds are the same protocol.
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
pub mod runtime;
pub mod server;
pub mod session;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{ClientConfig, RemoteStats, RemoteStatsSnapshot, RemoteWrapper};
pub use feed::{ChangeJournal, FeedHost, FeedSession, FeedWindow, Served, DEFAULT_JOURNAL_CAP};
pub use proto::{ChangeRecord, Message, ProtoError, RefusalKind, RemoteResult};
pub use runtime::{Runtime, Service};
pub use server::SourceServer;
pub use session::{
    dial, FaultConfig, Handler, LagClock, ServerConfig, ServerStats, Session, SessionServer,
    Subscription, TailConfig,
};

/// `println!` for the repository's binaries: the line is dropped on a
/// closed pipe (`EPIPE`) instead of panicking, so a binary whose reader
/// has gone still reaches its shutdown path. Import it by name
/// (`use annoda_federation::println;`) to shadow the standard macro.
#[macro_export]
macro_rules! println {
    ($($arg:tt)*) => {{
        use ::std::io::Write as _;
        let _ = ::std::writeln!(::std::io::stdout(), $($arg)*);
    }};
}

/// `print!` that drops its output on a closed pipe; see [`println!`].
#[macro_export]
macro_rules! print {
    ($($arg:tt)*) => {{
        use ::std::io::Write as _;
        let _ = ::std::write!(::std::io::stdout(), $($arg)*);
    }};
}

/// `eprintln!` that drops the line on a closed pipe; see [`println!`].
#[macro_export]
macro_rules! eprintln {
    ($($arg:tt)*) => {{
        use ::std::io::Write as _;
        let _ = ::std::writeln!(::std::io::stderr(), $($arg)*);
    }};
}
