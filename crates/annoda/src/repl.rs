//! Replication role state.
//!
//! A [`crate::DurableSystem`] is born a [`Role::Leader`], serving its
//! sources' change feeds to whoever subscribes.
//! [`crate::DurableSystem::follow`] makes it a [`Role::Follower`]: a
//! read-only serving node whose one writer is its leader's feeds (one
//! `annoda-stream` tailer per source), and which can be promoted to
//! leader on failover.
//!
//! [`ReplShared`] is the lock-free meeting point of the system, the
//! follower's feed tailers (which stop once the role flips) and the
//! HTTP layer (which names the leader in its refusals).

use std::sync::atomic::{AtomicU8, Ordering};

use parking_lot::Mutex;

/// Which side of replication this process is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes; serves its sources' change feeds.
    Leader,
    /// Read-only; absorbs its leader's feeds and can be promoted.
    Follower,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Leader => write!(f, "leader"),
            Role::Follower => write!(f, "follower"),
        }
    }
}

/// The role and the leader's address, shared as an `Arc` between the
/// system, the feed tailers and the HTTP layer.
#[derive(Debug, Default)]
pub struct ReplShared {
    /// 0 = leader, 1 = follower.
    follower: AtomicU8,
    /// Where writes live, for read-only refusals on a follower.
    leader_addr: Mutex<String>,
}

impl ReplShared {
    /// The current role.
    pub fn role(&self) -> Role {
        match self.follower.load(Ordering::Acquire) {
            0 => Role::Leader,
            _ => Role::Follower,
        }
    }

    /// Flips the role (following, promotion).
    pub(crate) fn set_role(&self, role: Role) {
        let follower = u8::from(role == Role::Follower);
        self.follower.store(follower, Ordering::Release);
    }

    /// Where the leader lives, for 403 bodies on a follower.
    pub fn leader_addr(&self) -> String {
        self.leader_addr.lock().clone()
    }

    /// Sets the advertised leader address.
    pub(crate) fn set_leader_addr(&self, addr: &str) {
        *self.leader_addr.lock() = addr.to_string();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_round_trips_and_flips() {
        let shared = ReplShared::default();
        assert_eq!(shared.role(), Role::Leader);
        shared.set_role(Role::Follower);
        assert_eq!(shared.role(), Role::Follower);
        shared.set_leader_addr("127.0.0.1:9000");
        assert_eq!(shared.leader_addr(), "127.0.0.1:9000");
        shared.set_role(Role::Leader);
        assert_eq!(shared.role(), Role::Leader);
        assert_eq!(Role::Leader.to_string(), "leader");
        assert_eq!(Role::Follower.to_string(), "follower");
    }
}
