//! TCP control-flag handling.
//!
//! Flow-state tracking in SmartWatch is driven almost entirely by TCP flag
//! sequences (SYN → SYN/ACK → ACK handshakes, RST injection, FIN teardown),
//! so flags get a small dedicated type rather than a raw `u8`.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

/// A set of TCP control flags.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// No flags set.
    pub const NONE: TcpFlags = TcpFlags(0);
    /// FIN: sender has finished sending.
    pub(crate) const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronise sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: urgent pointer is significant.
    pub(crate) const URG: TcpFlags = TcpFlags(0x20);
    /// SYN|ACK: the second step of the three-way handshake.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    /// FIN|ACK: common teardown segment.
    pub const FIN_ACK: TcpFlags = TcpFlags(0x11);
    /// RST|ACK: typical refusal segment.
    pub const RST_ACK: TcpFlags = TcpFlags(0x14);

    /// True if all flags in `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if the SYN flag is set (with or without ACK).
    pub fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }

    /// True if this is a pure SYN (no ACK): a connection-open attempt.
    pub fn is_syn_only(self) -> bool {
        self.contains(TcpFlags::SYN) && !self.contains(TcpFlags::ACK)
    }

    /// True if this is a SYN/ACK: the passive side accepting.
    pub fn is_syn_ack(self) -> bool {
        self.contains(TcpFlags::SYN_ACK)
    }

    /// True if the RST flag is set.
    pub fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }

    /// True if the FIN flag is set.
    pub fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for TcpFlags {
    type Output = TcpFlags;
    fn bitand(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 & rhs.0)
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (TcpFlags::FIN, "F"),
            (TcpFlags::SYN, "S"),
            (TcpFlags::RST, "R"),
            (TcpFlags::PSH, "P"),
            (TcpFlags::ACK, "A"),
            (TcpFlags::URG, "U"),
        ];
        let mut any = false;
        for (flag, n) in names {
            if self.contains(flag) {
                write!(f, "{n}")?;
                any = true;
            }
        }
        if !any {
            write!(f, ".")?;
        }
        Ok(())
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(TcpFlags::SYN.is_syn_only());
        assert!(!TcpFlags::SYN_ACK.is_syn_only());
        assert!(TcpFlags::SYN_ACK.is_syn_ack());
        assert!(TcpFlags::SYN_ACK.syn());
        assert!(TcpFlags::RST_ACK.rst());
        assert!(TcpFlags::FIN_ACK.fin());
        assert!(TcpFlags::FIN_ACK.contains(TcpFlags::ACK));
        assert!(!TcpFlags::NONE.syn());
    }

    #[test]
    fn set_operations() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert_eq!(f, TcpFlags::SYN_ACK);
        assert_eq!(f & TcpFlags::SYN, TcpFlags::SYN);
        let mut g = TcpFlags::NONE;
        g |= TcpFlags::RST;
        assert!(g.rst());
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", TcpFlags::SYN_ACK), "SA");
        assert_eq!(format!("{:?}", TcpFlags::NONE), ".");
        assert_eq!(format!("{:?}", TcpFlags::FIN | TcpFlags::PSH), "FP");
    }
}
