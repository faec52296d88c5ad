//! The operator's vocabulary: one [`AdminCmd`] per edit the admin
//! surface (the `POST /admin/*` routes) can ask of the control plane.
//! Applied by [`Controller::admin`](crate::Controller::admin).

use smartwatch_snic::Mode;

/// One operator command, applied by the controller at the next epoch
/// boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminCmd {
    /// Blacklist a flow digest (drops at dispatch; revokes any standing
    /// whitelist entry).
    BlacklistAdd(u64),
    /// Remove a digest from the steering blacklist.
    BlacklistRemove(u64),
    /// Whitelist a flow digest (survives load shedding; revokes any
    /// standing blacklist entry — the operator is authoritative).
    WhitelistAdd(u64),
    /// Remove a digest from the whitelist.
    WhitelistRemove(u64),
    /// `true`: shed load — every shard Lite, whitelisted flows only —
    /// until released. `false`: release it.
    ForceShed(bool),
    /// `Some(mode)`: pin one shard's FlowCache mode, overriding
    /// Algorithm 4 for that shard. `None`: release the override.
    ForceMode {
        /// Shard index the override applies to.
        shard: usize,
        /// Pinned mode, or `None` to release.
        mode: Option<Mode>,
    },
}

impl AdminCmd {
    /// Stable numeric code for flight-recorder events
    /// (`admin_edit.cmd`).
    pub fn code(&self) -> u64 {
        match self {
            AdminCmd::BlacklistAdd(_) => 1,
            AdminCmd::BlacklistRemove(_) => 2,
            AdminCmd::WhitelistAdd(_) => 3,
            AdminCmd::WhitelistRemove(_) => 4,
            AdminCmd::ForceShed(_) => 5,
            AdminCmd::ForceMode { .. } => 6,
        }
    }

    /// Payload word for flight-recorder events (`admin_edit.arg`): the
    /// digest, the shed pin (1 = on, 0 = released), or the target shard.
    pub fn arg(&self) -> u64 {
        match *self {
            AdminCmd::BlacklistAdd(d)
            | AdminCmd::BlacklistRemove(d)
            | AdminCmd::WhitelistAdd(d)
            | AdminCmd::WhitelistRemove(d) => d,
            AdminCmd::ForceShed(on) => u64::from(on),
            AdminCmd::ForceMode { shard, .. } => shard as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_codes_are_stable_and_distinct() {
        let cmds = [
            AdminCmd::BlacklistAdd(7),
            AdminCmd::BlacklistRemove(7),
            AdminCmd::WhitelistAdd(7),
            AdminCmd::WhitelistRemove(7),
            AdminCmd::ForceShed(true),
            AdminCmd::ForceMode {
                shard: 3,
                mode: Some(Mode::Lite),
            },
        ];
        let codes: Vec<u64> = cmds.iter().map(AdminCmd::code).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), cmds.len());
        assert_eq!(AdminCmd::BlacklistAdd(7).arg(), 7);
        assert_eq!(AdminCmd::ForceShed(false).arg(), 0);
        assert_eq!(AdminCmd::ForceShed(true).arg(), 1);
    }
}
