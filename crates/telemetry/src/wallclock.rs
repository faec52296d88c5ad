//! Wall-clock anchoring for the trace and flight-recorder paths.
//!
//! The simulator stamps trace events with the virtual clock, but the
//! wall-clock engine has no virtual time — its packets all carry trace
//! timestamps, not processing timestamps. A [`WallAnchor`] fixes an
//! origin `Instant` at engine start and maps later instants onto
//! [`smartwatch_net::Ts`] as nanoseconds-since-start, so the existing
//! chrome-trace [`crate::Tracer`] renders real thread timelines without
//! a second event format. Traces produced this way are *not*
//! byte-deterministic across runs (wall time never is); determinism
//! claims stay with the sim-time path.

use smartwatch_net::Ts;
use std::time::Instant;

/// A fixed wall-clock origin; instants map to [`Ts`] offsets from it.
#[derive(Clone, Copy, Debug)]
pub struct WallAnchor {
    origin: Instant,
}

impl Default for WallAnchor {
    fn default() -> WallAnchor {
        WallAnchor::new()
    }
}

impl WallAnchor {
    /// Anchor at "now".
    pub fn new() -> WallAnchor {
        WallAnchor {
            origin: Instant::now(),
        }
    }

    /// Map an instant taken after the anchor onto the trace axis
    /// (saturating at 0 for instants before it).
    pub fn ts_of(&self, t: Instant) -> Ts {
        Ts::from_nanos(t.saturating_duration_since(self.origin).as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchored_timestamps_are_monotonic() {
        let anchor = WallAnchor::new();
        let a = anchor.ts_of(Instant::now());
        let b = anchor.ts_of(Instant::now());
        assert!(b.as_nanos() >= a.as_nanos());
    }

    #[test]
    fn ts_of_saturates_before_origin() {
        let before = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let anchor = WallAnchor::new();
        assert_eq!(anchor.ts_of(before).as_nanos(), 0);
    }
}
