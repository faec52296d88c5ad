//! Virtual time for deterministic simulation.
//!
//! SmartWatch experiments must be exactly replayable: the FlowCache eviction
//! order, the EWMA mode switch-over, the timing-wheel expiry of buffered RST
//! packets — all of it depends on packet timestamps. Using the wall clock
//! would make every run different, so the whole workspace runs on a virtual
//! clock with nanosecond resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since the start of the trace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ts(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Ts {
    /// The origin of virtual time.
    pub const ZERO: Ts = Ts(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Ts {
        Ts(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Ts {
        Ts(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Ts {
        Ts(us * 1_000)
    }

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Ts {
        Ts(ns)
    }

    /// Nanoseconds since the trace origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the trace origin (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds since the trace origin (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: Ts) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    pub fn from_secs_f64(s: f64) -> Dur {
        Dur((s * 1e9).round().max(0.0) as u64)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiply by an integer factor.
    pub const fn mul(self, k: u64) -> Dur {
        Dur(self.0 * k)
    }
}

impl Add<Dur> for Ts {
    type Output = Ts;
    fn add(self, rhs: Dur) -> Ts {
        Ts(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Ts {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Ts {
    type Output = Ts;
    fn sub(self, rhs: Dur) -> Ts {
        Ts(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Ts> for Ts {
    type Output = Dur;
    fn sub(self, rhs: Ts) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Debug for Ts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{:09}s",
            self.0 / 1_000_000_000,
            self.0 % 1_000_000_000
        )
    }
}

impl fmt::Display for Ts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Ts::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(Ts::from_millis(5).as_micros(), 5_000);
        assert_eq!(Ts::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Dur::from_secs(2).as_micros(), 2_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = Ts::from_secs(1) + Dur::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t - Ts::from_secs(1), Dur::from_millis(500));
        // Saturating: earlier - later yields zero rather than wrapping.
        assert_eq!((Ts::from_secs(1) - Ts::from_secs(2)).as_nanos(), 0);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Ts::from_secs(1).since(Ts::from_secs(5)), Dur::ZERO);
        assert_eq!(Ts::from_secs(5).since(Ts::from_secs(1)), Dur::from_secs(4));
    }

    #[test]
    fn float_conversion() {
        let d = Dur::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Dur::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::from_secs(12)), "12.000s");
        assert_eq!(format!("{}", Ts::from_secs(1)), "1.000000000s");
    }

    #[test]
    fn ordering() {
        assert!(Ts::from_secs(1) < Ts::from_secs(2));
        assert!(Dur::from_micros(1) < Dur::from_millis(1));
    }
}
