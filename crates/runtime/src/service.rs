//! Service-mode primitives: the admin command queue and drain flag
//! that turn a run-to-completion engine into a steerable long-running
//! service.
//!
//! The admin surface (HTTP POST endpoints, signal handlers) never
//! touches engine state directly. Commands
//! ([`AdminCmd`], defined beside the controller that applies them) are
//! queued through [`Engine::admin`](crate::Engine::admin) into a bounded
//! mailbox and drained by the **controller thread** once per epoch, so
//! every edit rides the existing lock-free publication machinery: the
//! controller mutates its private tables, marks itself dirty, and the
//! next epoch publishes a fresh [`SteeringSnapshot`] through the
//! `SnapshotCell` RCU path / [`ModeCell`] atomics. The packet hot loop
//! keeps taking zero locks.
//!
//! The controller is resident — one for the life of the engine, parked
//! between segments like the flow state — so the two pins
//! (`ForceShed`, `ForceMode`) stand until the operator releases them,
//! across any number of segment boundaries, and a segment opens with
//! them already in force. Table edits (`Blacklist*`, `Whitelist*`) are
//! entries like any learned one: TTL'd, and gone when the next segment
//! opens with empty tables.
//!
//! Graceful drain works the same way from the other side: callers
//! raise a flag ([`Engine::request_drain`](crate::Engine::request_drain));
//! ingest units observe it at their 256-packet checkpoints, stop
//! offering, flush staged batches, and send the normal `Stop` markers
//! so the lanes quiesce exactly as at end-of-trace — every counter
//! folded, every verdict published, the segment report conserved.
//!
//! [`SteeringSnapshot`]: smartwatch_control::SteeringSnapshot
//! [`ModeCell`]: smartwatch_control::ModeCell

use smartwatch_control::AdminCmd;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Bounded multi-producer mailbox between the admin surface and the
/// controller thread. Pushes beyond the bound are refused (the caller
/// reports back-pressure to the operator); the controller drains the
/// whole queue once per epoch, so the bound is only ever hit by a
/// runaway client.
pub(crate) struct AdminQueue {
    cmds: Mutex<VecDeque<AdminCmd>>,
    cap: usize,
}

impl AdminQueue {
    pub(crate) fn new(cap: usize) -> AdminQueue {
        AdminQueue {
            cmds: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
        }
    }

    /// Enqueue a command; `false` when the mailbox is full.
    pub(crate) fn push(&self, cmd: AdminCmd) -> bool {
        let mut q = self.cmds.lock().expect("admin queue poisoned");
        if q.len() >= self.cap {
            return false;
        }
        q.push_back(cmd);
        true
    }

    /// Take everything queued, in arrival order.
    pub(crate) fn drain(&self) -> Vec<AdminCmd> {
        let mut q = self.cmds.lock().expect("admin queue poisoned");
        q.drain(..).collect()
    }

    /// Commands currently waiting.
    pub(crate) fn len(&self) -> usize {
        self.cmds.lock().expect("admin queue poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bounds_and_preserves_order() {
        let q = AdminQueue::new(2);
        assert!(q.push(AdminCmd::BlacklistAdd(1)));
        assert!(q.push(AdminCmd::WhitelistAdd(2)));
        assert!(!q.push(AdminCmd::BlacklistAdd(3)), "bound refuses");
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.drain(),
            vec![AdminCmd::BlacklistAdd(1), AdminCmd::WhitelistAdd(2)]
        );
        assert_eq!(q.len(), 0);
        assert!(
            q.push(AdminCmd::ForceShed(Some(true))),
            "drained queue accepts again"
        );
    }
}
