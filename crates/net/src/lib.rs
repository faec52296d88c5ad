//! # smartwatch-net
//!
//! Packet and flow model substrate for the SmartWatch monitoring platform.
//!
//! This crate is the lowest layer of the workspace: every other crate
//! (trace generation, P4 switch simulation, SmartNIC FlowCache, host
//! subsystem, detectors) speaks in terms of the types defined here.
//!
//! The main abstractions are:
//!
//! - [`Ts`] / [`Dur`] — a virtual, nanosecond-resolution clock. All
//!   simulation in the workspace runs against virtual time; nothing ever
//!   reads the wall clock, which keeps every experiment deterministic and
//!   replayable.
//! - [`FlowKey`] — the classic 5-tuple, with *symmetric* canonicalisation so
//!   that both directions of a TCP/UDP session map to the same key (the
//!   paper's "symmetric hash function", §4).
//! - [`Packet`] — the per-packet metadata record that moves through the
//!   monitoring pipeline. SmartWatch is a flow-state tracker, not a DPI
//!   engine, so packets carry headers plus a payload *digest* rather than a
//!   full payload (the paper assumes DC traffic is encrypted, §6).
//! - [`wire`] — Ethernet/IPv4/TCP/UDP encode/decode for interoperability
//!   tests and pcap ingestion, including the borrow-based
//!   [`wire::FrameView`] that parses headers in place from `&[u8]`.
//! - [`frame`] — packed wire-frame arenas ([`FrameStore`]): compile a
//!   trace to raw frames once, replay it many times through the
//!   zero-copy ingest path.
//! - [`pcap`] — classic libpcap read/write, so traces interoperate with
//!   tcpdump/wireshark/editcap, matching the paper's methodology.
//! - [`hash`] — the hash family used by the FlowCache and sketches,
//!   including the digest-splitting helpers that Algorithm 1 of the paper
//!   relies on (low bits select the row, high bits the Lite-mode offset).
//! - [`resident`] — the reset contract of engine-lifetime flow tables:
//!   empty in place, keep the allocation and the hasher key, shrink only
//!   what a flood left over-provisioned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod hash;
pub mod key;
pub mod label;
pub mod packet;
pub mod pcap;
pub mod resident;
pub mod tcp;
pub mod time;
pub mod wire;

pub use frame::{FrameMeta, FrameStore};
pub use hash::{
    shard_for_digest, AgingDigestSet, BuildDigestHasher, DigestSet, FlowDigest, FlowHasher,
    HashDigest, KeyedMix,
};
pub use key::{fold_ip, FlowKey, Proto, RawTuple};
pub use label::{AttackKind, Label};
pub use packet::{Packet, PacketBuilder};
pub use resident::Resident;
pub use tcp::TcpFlags;
pub use time::{Dur, Ts};
pub use wire::FrameView;
