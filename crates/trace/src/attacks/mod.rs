//! Attack-traffic generators, one per row of the paper's Tables 2 and 4.
//!
//! Each generator produces a labelled [`Trace`](crate::Trace) that the
//! evaluation harness merges into background traffic (timestamp-shifted, as
//! the paper does with editcap/mergecap). Labels are ground truth for the
//! detection-rate experiments and are invisible to the data plane.
//!
//! Attacker addresses come from 198.18.0.0/15 (RFC 2544 benchmarking space)
//! so they never collide with the 10/8 clients and 172.16/12 servers used
//! by the background generators.

pub mod auth;
pub mod covert;
pub mod dns_amp;
pub mod microburst;
pub mod portscan;
pub mod rst;
pub mod slowloris;
pub mod wfp;
pub mod worm;

use std::net::Ipv4Addr;

/// Attacker address for index `i`, drawn from 198.18.0.0/15.
pub(crate) fn attacker_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0xC612_0000u32 | (i & 0x0001_FFFF))
}

/// Victim address for index `i`, drawn from the server pool so attacks
/// target addresses that also see benign traffic.
pub fn victim_ip(i: u32) -> Ipv4Addr {
    crate::background::server_ip(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacker_pool_disjoint_from_background_pools() {
        for i in 0..1000 {
            let a = u32::from(attacker_ip(i));
            assert_eq!(a >> 17, 0xC612_0000u32 >> 17, "attacker outside 198.18/15");
            // Not in 10/8.
            assert_ne!(a >> 24, 10);
            // Not in 172.16/12.
            assert_ne!(a >> 20, u32::from(Ipv4Addr::new(172, 16, 0, 0)) >> 20);
        }
    }
}
