//! Robustness: byte-level parsers must never panic on arbitrary input,
//! and detector state machines must tolerate adversarial packet orderings.

use proptest::prelude::*;
use smartwatch::host::ConnTable;
use smartwatch::net::{pcap, wire, FlowKey, PacketBuilder, Proto, TcpFlags, Ts};
use smartwatch::snic::{CachePolicy, FlowCache, FlowCacheConfig, Mode};
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// wire::decode never panics, whatever bytes arrive.
    #[test]
    fn wire_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = wire::decode(&bytes, Ts::ZERO);
    }

    /// pcap::read never panics, whatever bytes arrive.
    #[test]
    fn pcap_read_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..1024)) {
        let _ = pcap::read(&bytes);
    }

    /// A pcap with a valid header but corrupted body errors cleanly.
    #[test]
    fn corrupted_pcap_body_errors(flip_at in 24usize..200, xor in 1u8..255) {
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1), 40000, Ipv4Addr::new(172, 16, 0, 1), 443);
        let pkts: Vec<_> = (0..4u64)
            .map(|i| PacketBuilder::new(key, Ts::from_micros(i)).payload(100).build())
            .collect();
        let mut bytes = pcap::write(&pkts);
        if flip_at < bytes.len() {
            bytes[flip_at] ^= xor;
            // Must return (Ok with different contents, or Err) — no panic.
            let _ = pcap::read(&bytes);
        }
    }

    /// The connection table accepts packets in any order (RSTs before
    /// SYNs, FINs from nowhere, midstream pickups) without panicking, and
    /// its byte accounting never regresses.
    #[test]
    fn conn_table_tolerates_any_flag_order(
        steps in prop::collection::vec((0u8..6, any::<bool>(), 0u16..1000), 1..80)
    ) {
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1), 40000, Ipv4Addr::new(172, 16, 0, 1), 443);
        let mut table = ConnTable::new();
        let mut last_total = 0u64;
        for (i, (flag_sel, reverse, payload)) in steps.iter().enumerate() {
            let flags = [
                TcpFlags::SYN,
                TcpFlags::SYN_ACK,
                TcpFlags::ACK,
                TcpFlags::FIN_ACK,
                TcpFlags::RST,
                TcpFlags::PSH | TcpFlags::ACK,
            ][usize::from(*flag_sel)];
            let k = if *reverse { key.reversed() } else { key };
            let p = PacketBuilder::new(k, Ts::from_micros(i as u64))
                .flags(flags)
                .payload(*payload)
                .build();
            table.process(&p);
            if let Some(rec) = table.get_digested(&table.digest(&key)) {
                prop_assert!(rec.total_bytes() >= last_total);
                last_total = rec.total_bytes();
            }
        }
    }

    /// FlowCache tolerates non-TCP and zero-port traffic.
    #[test]
    fn flowcache_tolerates_odd_protocols(
        protos in prop::collection::vec(0u8..255, 1..60),
    ) {
        let mut fc = FlowCache::new(FlowCacheConfig::split(3, 2, 2, CachePolicy::LRU_LPC));
        fc.set_mode(Mode::Lite);
        for (i, pn) in protos.iter().enumerate() {
            let key = FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(172, 16, 0, 1),
                0,
                0,
                Proto::from_number(*pn),
            );
            fc.process(&PacketBuilder::new(key, Ts::from_micros(i as u64)).build());
        }
        // Distinct protocols are distinct flows.
        let mut seen: Vec<u8> = protos.clone();
        seen.sort_unstable();
        seen.dedup();
        let total: u64 = fc.iter().map(|r| r.packets).sum::<u64>()
            + fc.rings().drain().iter().map(|r| r.packets).sum::<u64>();
        prop_assert_eq!(total + fc.stats().to_host, protos.len() as u64);
    }
}
