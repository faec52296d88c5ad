//! The hash family used across SmartWatch.
//!
//! Three requirements drive this module:
//!
//! 1. **Symmetry** — the FlowCache must map both directions of a session to
//!    the same row (paper §4 "Symmetric Hash Function"). We achieve this by
//!    hashing the *canonical* orientation of the 5-tuple.
//! 2. **Digest splitting** — Algorithm 1 of the paper consumes one hash
//!    digest two ways: the low `x` bits select the hash-table row and the
//!    bits above `x` select the Lite-mode bucket offset. [`HashDigest`]
//!    packages that contract.
//! 3. **Independent hash functions** — sketches (CountMin, Elastic, MV)
//!    need `d` pairwise-independent functions; [`FlowHasher`] is seedable so
//!    each sketch row gets its own function.
//!
//! The mixer is a xxhash/murmur-style 64-bit finalizer over the packed
//! 13-byte 5-tuple. It is not cryptographic — neither is the hardware CRC
//! the Netronome uses — but it passes avalanche sanity tests (see below).

use crate::key::{FlowKey, Proto, RawTuple};
use crate::resident::Resident;
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;

/// A 64-bit flow hash digest with the splitting accessors used by the
/// FlowCache (Algorithm 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct HashDigest(pub u64);

impl HashDigest {
    /// Row index: the low `row_bits` bits of the digest
    /// (`hash_digest & (rows - 1)` in Algorithm 1 line 4).
    pub fn row(self, row_bits: u32) -> usize {
        debug_assert!(row_bits <= 63);
        (self.0 & ((1u64 << row_bits) - 1)) as usize
    }

    /// The bits above the row index, used by Lite mode to pick a bucket
    /// group within the row (`hash_digest >> x` in Algorithm 1 line 8).
    pub fn high(self, row_bits: u32) -> u64 {
        self.0 >> row_bits
    }

    /// Reduce the digest onto `m` counters (for sketches). Uses the
    /// multiply-shift trick to avoid modulo bias for non-power-of-two `m`.
    pub fn bucket(self, m: usize) -> usize {
        (((self.0 >> 32) * m as u64) >> 32) as usize
    }

    /// Compact probe tag for the FlowCache's per-row tag arrays: the top
    /// byte of the digest, mapped away from zero because 0 is the
    /// "empty bucket" sentinel. The top byte is untouched by
    /// [`HashDigest::row`] for every legal `row_bits` (≤ 30), so the tag
    /// adds discrimination *within* a row: a mismatch skips the full
    /// 13-byte key compare, a match is wrong only ~1/255 of the time.
    #[inline]
    pub fn tag(self) -> u8 {
        let t = (self.0 >> 56) as u8;
        if t == 0 {
            1
        } else {
            t
        }
    }
}

/// A packet's flow identity as ingest computed it: the canonical key,
/// which way the packet travelled relative to it, and the symmetric
/// digest of the canonical key. Everything flow-keyed downstream — RSS
/// sharding, the verdict sets, the FlowCache row, the detector tables —
/// takes this instead of canonicalising and hashing the 5-tuple again.
/// Only [`FlowHasher`]'s digest functions build one (outside this crate
/// `non_exhaustive` forbids the struct literal), so a digest anyone
/// holds is one a hasher computed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub struct FlowDigest {
    /// `key.canonical().0`.
    pub canon: FlowKey,
    /// The packet travelled in the canonical key's direction.
    pub forward: bool,
    /// [`FlowHasher::hash_directed`] of `canon`.
    pub digest: HashDigest,
}

/// The flow-hash seed an engine, its FlowCaches and its controller
/// digest under unless told otherwise (`EngineConfig::hash_seed`,
/// `FlowCacheConfig::hash_seed`). Not [`FlowHasher::default`]'s seed,
/// which is 0: that hasher digests differently.
pub const DEFAULT_HASH_SEED: u64 = 0x51CC;

/// Seedable 64-bit hasher over flow keys and raw bytes.
///
/// Distinct seeds give (empirically) independent functions, which is what
/// the sketch baselines require.
#[derive(Clone, Copy, Debug)]
pub struct FlowHasher {
    seed: u64,
}

const K0: u64 = 0x9e37_79b9_7f4a_7c15;
const K1: u64 = 0xbf58_476d_1ce4_e5b9;
const K2: u64 = 0x94d0_49bb_1331_11eb;
/// `K0`'s inverse mod 2^64 (`K0` is odd), which [`FlowHasher::seed`]
/// undoes [`FlowHasher::new`]'s multiply with.
const K0_INV: u64 = 0xf1de_83e1_9937_733d;

#[inline]
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(K1);
    h ^= h >> 27;
    h = h.wrapping_mul(K2);
    h ^= h >> 31;
    h
}

impl Default for FlowHasher {
    fn default() -> Self {
        FlowHasher::new(0)
    }
}

impl FlowHasher {
    /// Create a hasher with the given seed. Each distinct seed yields an
    /// (empirically) independent hash function.
    pub fn new(seed: u64) -> FlowHasher {
        FlowHasher {
            seed: seed.wrapping_mul(K0).wrapping_add(K1),
        }
    }

    /// The seed this hasher was built with: two hashers digest alike
    /// exactly when their seeds are equal.
    pub fn seed(&self) -> u64 {
        self.seed.wrapping_sub(K1).wrapping_mul(K0_INV)
    }

    /// Hash a directed flow key exactly as given (no canonicalisation).
    pub fn hash_directed(&self, key: &FlowKey) -> HashDigest {
        let a = (u64::from(u32::from(key.src_ip)) << 16) | u64::from(key.src_port);
        let b = (u64::from(u32::from(key.dst_ip)) << 16) | u64::from(key.dst_port);
        let p = u64::from(key.proto.number());
        let mut h = self.seed;
        h = mix(h ^ a.wrapping_mul(K0));
        h = mix(h ^ b.wrapping_mul(K1));
        h = mix(h ^ p.wrapping_mul(K2));
        HashDigest(h)
    }

    /// Hash the *session* identity of a flow key: both directions of the
    /// connection produce the same digest. This is the paper's symmetric
    /// hash (§4), implemented via canonical orientation.
    pub fn hash_symmetric(&self, key: &FlowKey) -> HashDigest {
        self.digest_symmetric(key).1
    }

    /// Canonicalise `key` and hash it, returning both. This is the
    /// pre-digesting entry point of the hot path: the engine's dispatcher
    /// calls it exactly once per packet and every downstream consumer
    /// (RSS sharding, black/whitelist membership, the FlowCache row
    /// lookup) reuses the pair instead of re-deriving it.
    #[inline]
    pub fn digest_symmetric(&self, key: &FlowKey) -> (FlowKey, HashDigest) {
        let (canon, _) = key.canonical();
        (canon, self.hash_directed(&canon))
    }

    /// [`FlowHasher::digest_symmetric`] keeping the direction: the whole
    /// [`FlowDigest`] of a packet keyed `key`.
    #[inline]
    pub fn flow_digest(&self, key: &FlowKey) -> FlowDigest {
        let (canon, dir) = key.canonical();
        FlowDigest {
            canon,
            forward: dir == crate::key::Direction::Forward,
            digest: self.hash_directed(&canon),
        }
    }

    /// Digest a [`RawTuple`] extracted straight from frame bytes, without
    /// materialising the directed [`FlowKey`] first.
    ///
    /// Bit-identical to [`FlowHasher::flow_digest`] over the equivalent
    /// key, direction included: the tuple is canonicalised by the same
    /// `(ip, port)` lexicographic comparison [`FlowKey::canonical`] uses
    /// — which also says which way the packet travelled — then hashed
    /// with the same three-round mixer. The wire ingest path
    /// ([`crate::wire::FrameView`]) relies on this equivalence: a
    /// compiled replay makes the same decisions as the synthetic one.
    #[inline]
    pub fn flow_digest_raw(&self, t: RawTuple) -> FlowDigest {
        let (aip, ap, bip, bp, forward) = canon_raw(&t);
        let a = (u64::from(aip) << 16) | u64::from(ap);
        let b = (u64::from(bip) << 16) | u64::from(bp);
        let p = u64::from(t.proto);
        let mut h = self.seed;
        h = mix(h ^ a.wrapping_mul(K0));
        h = mix(h ^ b.wrapping_mul(K1));
        h = mix(h ^ p.wrapping_mul(K2));
        FlowDigest {
            canon: canon_key(aip, ap, bip, bp, t.proto),
            forward,
            digest: HashDigest(h),
        }
    }

    /// Digest eight raw tuples at once.
    ///
    /// Structurally the same math as [`FlowHasher::flow_digest_raw`] but
    /// laid out as eight independent lanes per mixing round, so the
    /// compiler can keep all eight hashes in flight (auto-vectorised or
    /// at least ILP-scheduled) instead of serialising the three
    /// data-dependent mix rounds per packet. `benches/digest.rs` prices
    /// this against the scalar baseline.
    #[inline]
    pub fn flow_digest_batch8(&self, tuples: &[RawTuple; 8]) -> [FlowDigest; 8] {
        let mut a = [0u64; 8];
        let mut b = [0u64; 8];
        let mut p = [0u64; 8];
        let mut canon = [(0u32, 0u16, 0u32, 0u16, false); 8];
        for i in 0..8 {
            let c = canon_raw(&tuples[i]);
            a[i] = (u64::from(c.0) << 16) | u64::from(c.1);
            b[i] = (u64::from(c.2) << 16) | u64::from(c.3);
            p[i] = u64::from(tuples[i].proto);
            canon[i] = c;
        }
        let mut h = [self.seed; 8];
        for i in 0..8 {
            h[i] = mix(h[i] ^ a[i].wrapping_mul(K0));
        }
        for i in 0..8 {
            h[i] = mix(h[i] ^ b[i].wrapping_mul(K1));
        }
        for i in 0..8 {
            h[i] = mix(h[i] ^ p[i].wrapping_mul(K2));
        }
        std::array::from_fn(|i| {
            let (aip, ap, bip, bp, forward) = canon[i];
            FlowDigest {
                canon: canon_key(aip, ap, bip, bp, tuples[i].proto),
                forward,
                digest: HashDigest(h[i]),
            }
        })
    }

    /// [`FlowHasher::flow_digest_raw`] without the direction: the
    /// `(canon, digest)` pair of [`FlowHasher::digest_symmetric`]. The
    /// engine calls `flow_digest_raw`; this projection stays for the
    /// benchmark's layer walk, which destructures the pair.
    #[inline]
    pub fn digest_raw(&self, t: RawTuple) -> (FlowKey, HashDigest) {
        let f = self.flow_digest_raw(t);
        (f.canon, f.digest)
    }

    /// [`FlowHasher::flow_digest_batch8`] without the directions; kept,
    /// like [`FlowHasher::digest_raw`], for the benchmark's layer walk.
    #[inline]
    pub fn digest_batch8(&self, tuples: &[RawTuple; 8]) -> [(FlowKey, HashDigest); 8] {
        self.flow_digest_batch8(tuples).map(|f| (f.canon, f.digest))
    }

    /// Hash a u64 key (used for prefix-aggregated switch queries).
    pub fn hash_u64(&self, v: u64) -> HashDigest {
        HashDigest(mix(self.seed ^ v.wrapping_mul(K0)))
    }
}

/// Canonical orientation of a raw tuple: the same lexicographic
/// `(ip, port)` endpoint ordering as [`FlowKey::canonical`], over wire
/// integers, and whether the tuple already had it (the packet travelled
/// forward).
///
/// Addresses fold through [`crate::key::fold_ip`] *before* comparison, so
/// the orientation — and therefore the digest — is a pure function of the
/// folded 32-bit flow-model addresses. For IPv4 tuples the fold is the
/// identity, keeping [`FlowHasher::flow_digest_raw`] bit-identical to
/// [`FlowHasher::flow_digest`]; for IPv6 tuples it makes the raw
/// digest agree with `flow_digest` of the folded [`FlowKey`] that
/// every downstream consumer (verdict tables, FlowCache rows) sees.
#[inline]
fn canon_raw(t: &RawTuple) -> (u32, u16, u32, u16, bool) {
    let src = crate::key::fold_ip(t.src_ip);
    let dst = crate::key::fold_ip(t.dst_ip);
    if (src, t.src_port) <= (dst, t.dst_port) {
        (src, t.src_port, dst, t.dst_port, true)
    } else {
        (dst, t.dst_port, src, t.src_port, false)
    }
}

/// The canonical [`FlowKey`] of an oriented, folded raw tuple.
#[inline]
fn canon_key(aip: u32, ap: u16, bip: u32, bp: u16, proto: u8) -> FlowKey {
    FlowKey::new(
        Ipv4Addr::from(aip),
        Ipv4Addr::from(bip),
        ap,
        bp,
        Proto::from_number(proto),
    )
}

/// Map an already-computed *symmetric* digest to one of `n_shards` RSS
/// shards. The digest must come from [`FlowHasher::hash_symmetric`] /
/// [`FlowHasher::digest_symmetric`] (i.e. be direction-free), otherwise
/// the two directions of a flow may land on different shards.
///
/// This is the software analogue of symmetric RSS (a Toeplitz hash with a
/// symmetric key, as NICs configure for connection-affine steering): both
/// directions of a session map to the *same* shard, so per-shard flow
/// state never needs cross-shard synchronisation. The dispatcher digests
/// a packet once and reuses the digest for sharding, membership tests and
/// the FlowCache row lookup; the reduction is the multiply-shift of
/// [`HashDigest::bucket`], unbiased for non-power-of-two shard counts.
///
/// `n_shards` must be ≥ 1; with one shard every flow maps to shard 0.
#[inline]
pub fn shard_for_digest(digest: HashDigest, n_shards: usize) -> usize {
    debug_assert!(n_shards >= 1, "need at least one shard");
    digest.bucket(n_shards)
}

/// SplitMix64 output step: a stateless 64-bit mixer with full-period
/// avalanche, used wherever the workspace needs a cheap *independent*
/// derivation from an existing 64-bit value — per-queue RSS salts,
/// deterministic simulation seeds — without touching the flow-hash
/// family above.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A no-op `Hasher` for keys that already *are* 64-bit hash digests.
///
/// `HashSet<FlowKey>` membership pays a full SipHash of the 13-byte
/// 5-tuple per probe; with pre-digested packets the digest is sitting in
/// the batch, so black/whitelists key on it directly and the "hash" is
/// the identity function. Digests are xxhash-style mixed, so every bit
/// region (including the high bits hashbrown uses for control bytes) is
/// already uniform.
#[derive(Clone, Copy, Debug, Default)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reachable if a non-u64 key sneaks in; fold bytes so the
        // hasher stays correct (if degraded) rather than silently zero.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// `BuildHasher` for [`DigestHasher`]-keyed collections.
pub type BuildDigestHasher = BuildHasherDefault<DigestHasher>;

/// A `HashSet` of 64-bit digests with identity hashing — the membership
/// structure used by the runtime shards' black/whitelists.
pub type DigestSet = HashSet<u64, BuildDigestHasher>;

/// A fast `BuildHasher` for tables whose keys arrive off the wire
/// (connection tables, buffered-RST indices), **randomly keyed per
/// instance**.
///
/// SipHash, the `HashMap` default, costs more than the rest of a
/// connection-table update on 13-byte 5-tuples. This hasher folds each
/// written word into the state with one 64×64→128-bit multiply (high half
/// XOR low half, so no input bit region is lost the way a plain wrapping
/// multiply loses the top bits). Both the initial state and the
/// multiplier are secret: every [`KeyedMix::new`] draws them from a fresh
/// [`RandomState`], so an attacker cannot precompute 5-tuples that
/// collide in a given table — the HashDoS posture of the SipHash tables
/// it replaces — and two tables never share a bucket layout.
#[derive(Clone, Debug)]
pub struct KeyedMix {
    state: u64,
    mul: u64,
}

impl KeyedMix {
    /// A hasher family with a fresh random key.
    pub fn new() -> KeyedMix {
        let rs = RandomState::new();
        KeyedMix {
            state: rs.hash_one(0u64),
            // Odd, so the multiplier is never zero.
            mul: rs.hash_one(1u64) | 1,
        }
    }

    /// The family under a known key, for tests that need a known
    /// layout: state 0 and multiplier 1 hash a single `u64` below 2^32
    /// to itself (the finisher folds only the high half down).
    pub fn with_key(state: u64, mul: u64) -> KeyedMix {
        KeyedMix { state, mul }
    }
}

impl Default for KeyedMix {
    fn default() -> Self {
        KeyedMix::new()
    }
}

impl BuildHasher for KeyedMix {
    type Hasher = KeyedMixHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedMixHasher {
        KeyedMixHasher {
            state: self.state,
            mul: self.mul,
        }
    }
}

/// The [`Hasher`] of [`KeyedMix`].
#[derive(Clone, Copy, Debug)]
pub struct KeyedMixHasher {
    state: u64,
    mul: u64,
}

impl Hasher for KeyedMixHasher {
    /// The state with its top half and top quarter folded down, so every
    /// high bit lands on one of the low 16 a table homes on.
    #[inline]
    fn finish(&self) -> u64 {
        let s = self.state;
        s ^ (s >> 32) ^ (s >> 48)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // The tail's length rides in the top byte (rem.len() < 8), so
            // trailing zero bytes are not absorbed silently.
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            buf[7] = rem.len() as u8;
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let p = u128::from(self.state ^ v) * u128::from(self.mul);
        self.state = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A TTL'd, capacity-bounded digest set for long-lived black/whitelists.
///
/// The plain [`DigestSet`] accumulates forever — fine for a one-shot
/// replay, fatal for a long-running engine where every verdict ever
/// issued would stay resident. This variant stamps each digest with the
/// epoch it was last inserted/touched:
///
/// * [`AgingDigestSet::sweep`] expires entries untouched for more than
///   `ttl` epochs;
/// * inserts past `capacity` evict the stalest entry — the set never
///   exceeds its bound, even if the caller forgets to sweep.
///
/// "Epoch" is whatever monotone counter the caller advances — the
/// control plane uses controller epochs, the runtime shards use batch
/// counts — so aging stays deterministic for deterministic inputs.
#[derive(Clone, Debug)]
pub struct AgingDigestSet {
    map: std::collections::HashMap<u64, u64, BuildDigestHasher>,
    capacity: usize,
    ttl: u64,
    /// Most entries held since the last [`AgingDigestSet::reset`], as of
    /// the last removal (the length only falls there).
    high_water: usize,
}

impl AgingDigestSet {
    /// Set bounded to `capacity` entries whose members expire after
    /// going `ttl` epochs untouched. `capacity` ≥ 1.
    pub fn new(capacity: usize, ttl: u64) -> AgingDigestSet {
        assert!(capacity >= 1, "aging set needs capacity >= 1");
        AgingDigestSet {
            map: std::collections::HashMap::default(),
            capacity,
            ttl,
            high_water: 0,
        }
    }

    /// Back to the state [`AgingDigestSet::new`] built, in place: no
    /// members, same bounds; the map keeps its
    /// allocation under the [`Resident`] shrink rule.
    pub fn reset(&mut self) {
        let high_water = self.high_water.max(self.map.len());
        self.map.reset_to(high_water);
        self.high_water = 0;
    }

    /// Insert (or refresh) `digest` at epoch `now`. Returns `true` if the
    /// digest was not already present. At capacity, the stalest entry is
    /// evicted first.
    pub fn insert(&mut self, digest: u64, now: u64) -> bool {
        if let Some(stamp) = self.map.get_mut(&digest) {
            *stamp = now;
            return false;
        }
        if self.map.len() >= self.capacity {
            // Rare path (only at the bound): O(n) scan for the stalest.
            if let Some(oldest) = self.map.iter().min_by_key(|(_, s)| **s).map(|(d, _)| *d) {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(digest, now);
        true
    }

    /// Membership probe (identity-hashed, no stamp refresh).
    /// An empty set answers without hashing or touching the table: a
    /// shard asks its verdict sets about every packet, and most runs
    /// never whitelist anything.
    #[inline]
    pub fn contains(&self, digest: &u64) -> bool {
        !self.map.is_empty() && self.map.contains_key(digest)
    }

    /// Remove a digest outright (e.g. a whitelist entry superseded by a
    /// blacklist verdict). Returns `true` if it was resident.
    pub fn remove(&mut self, digest: &u64) -> bool {
        self.high_water = self.high_water.max(self.map.len());
        self.map.remove(digest).is_some()
    }

    /// Expire every entry untouched for more than the TTL as of epoch
    /// `now`; returns how many were removed.
    pub fn sweep(&mut self, now: u64) -> u64 {
        let ttl = self.ttl;
        let before = self.map.len();
        self.high_water = self.high_water.max(before);
        self.map
            .retain(|_, stamp| now.saturating_sub(*stamp) <= ttl);
        (before - self.map.len()) as u64
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no digests are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over resident digests (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &u64> {
        self.map.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn key(a: u32, ap: u16, b: u32, bp: u16) -> FlowKey {
        FlowKey::new(Ipv4Addr::from(a), Ipv4Addr::from(b), ap, bp, Proto::Tcp)
    }

    /// The raw tuple a v4 frame of `k` carries.
    fn raw(k: &FlowKey) -> RawTuple {
        RawTuple {
            src_ip: u128::from(u32::from(k.src_ip)),
            dst_ip: u128::from(u32::from(k.dst_ip)),
            src_port: k.src_port,
            dst_port: k.dst_port,
            proto: k.proto.number(),
        }
    }

    #[test]
    fn symmetric_hash_matches_reverse() {
        let h = FlowHasher::new(7);
        for i in 0..1000u32 {
            let k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
            assert_eq!(h.hash_symmetric(&k), h.hash_symmetric(&k.reversed()));
        }
    }

    #[test]
    fn directed_hash_differs_by_direction() {
        let h = FlowHasher::new(7);
        let k = key(0x0a00_0001, 1000, 0x0a00_0002, 22);
        assert_ne!(h.hash_directed(&k), h.hash_directed(&k.reversed()));
    }

    #[test]
    fn seeds_give_different_functions() {
        let k = key(1, 2, 3, 4);
        let d: HashSet<u64> = (0..64)
            .map(|s| FlowHasher::new(s).hash_directed(&k).0)
            .collect();
        assert_eq!(d.len(), 64, "64 seeds should give 64 distinct digests");
    }

    #[test]
    fn a_hasher_names_the_seed_it_was_built_with() {
        assert_eq!(K0.wrapping_mul(K0_INV), 1);
        for seed in [0, 1, 0x51CC, u64::MAX, 0xDEAD_BEEF_0BAD_F00D] {
            assert_eq!(FlowHasher::new(seed).seed(), seed);
        }
        assert_eq!(FlowHasher::default().seed(), 0);
    }

    #[test]
    fn row_and_high_split_digest() {
        let d = HashDigest(0xABCD_EF01_2345_6789);
        assert_eq!(d.row(21), (0x2345_6789 & ((1 << 21) - 1)) as usize);
        assert_eq!(d.high(21), 0xABCD_EF01_2345_6789u64 >> 21);
    }

    #[test]
    fn tag_is_nonzero_top_byte_and_spreads() {
        assert_eq!(HashDigest(0).tag(), 1, "zero maps to the sentinel-free 1");
        assert_eq!(HashDigest(0xAB00_0000_0000_0000).tag(), 0xAB);
        assert_eq!(
            HashDigest(0x00FF_FFFF_FFFF_FFFF).tag(),
            1,
            "only the top byte participates"
        );
        let h = FlowHasher::new(0x51CC);
        let mut hits = [0u32; 256];
        for i in 0..100_000u64 {
            let t = h.hash_u64(i).tag();
            assert_ne!(t, 0, "tags are never the empty sentinel");
            hits[t as usize] += 1;
        }
        assert_eq!(hits[0], 0);
        // 255 live values, ~392 each; hits[1] absorbs the 0-remap (~2x).
        assert!(
            hits[1..].iter().all(|&c| c > 100 && c < 1200),
            "poor tag spread: max={:?}",
            hits.iter().copied().max()
        );
    }

    #[test]
    fn bucket_reduction_in_range_and_spread() {
        let h = FlowHasher::new(3);
        let m = 1000;
        let mut hits = vec![0u32; m];
        for i in 0..100_000u32 {
            let b = h.hash_u64(i as u64).bucket(m);
            assert!(b < m);
            hits[b] += 1;
        }
        // Expect ~100 per bucket; fail if any bucket is wildly off.
        assert!(
            hits.iter().all(|&c| c > 40 && c < 200),
            "poor spread: {:?}",
            hits.iter().copied().max()
        );
    }

    #[test]
    fn avalanche_on_single_bit_flip() {
        let h = FlowHasher::new(0);
        let base = h.hash_u64(0x1234_5678).0;
        for bit in 0..64 {
            let flipped = h.hash_u64(0x1234_5678 ^ (1u64 << bit)).0;
            let dist = (base ^ flipped).count_ones();
            assert!(dist >= 16, "bit {bit} avalanche too weak: {dist}");
        }
    }

    #[test]
    fn digest_symmetric_matches_two_step_derivation() {
        let h = FlowHasher::new(0x51CC);
        for i in 0..500u32 {
            let k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
            let (canon, digest) = h.digest_symmetric(&k);
            assert_eq!(canon, k.canonical().0);
            assert_eq!(digest, h.hash_symmetric(&k));
            assert_eq!(h.digest_symmetric(&k.reversed()), (canon, digest));
        }
    }

    #[test]
    fn a_flow_digest_is_the_symmetric_digest_plus_the_direction() {
        let h = FlowHasher::new(0x51CC);
        // Both directions, and a flow between one endpoint and itself
        // (canonical either way round: forward).
        let land = key(0x0a00_0001, 80, 0x0a00_0001, 80);
        for i in 0..500u32 {
            let k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
            for dir in [k, k.reversed(), land] {
                let flow = h.flow_digest(&dir);
                assert_eq!((flow.canon, flow.digest), h.digest_symmetric(&dir));
                assert_eq!(flow.forward, flow.canon == dir);
            }
        }
    }

    /// `flow_digest_raw` and every lane of `flow_digest_batch8` over
    /// `tuples` return exactly `flow_digest` of the folded key, and the
    /// direction-free forms are their projections.
    fn assert_raw_is_flow_digest(h: &FlowHasher, tuples: &[RawTuple; 8]) {
        let batch = h.flow_digest_batch8(tuples);
        let pairs = h.digest_batch8(tuples);
        for (j, t) in tuples.iter().enumerate() {
            let want = h.flow_digest(&t.key());
            assert_eq!(h.flow_digest_raw(*t), want, "scalar lane for {t:?}");
            assert_eq!(batch[j], want, "batch lane {j} for {t:?}");
            assert_eq!(h.digest_raw(*t), (want.canon, want.digest));
            assert_eq!(pairs[j], (want.canon, want.digest));
        }
    }

    #[test]
    fn raw_digests_are_bit_identical_to_the_key_path_direction_included() {
        let h = FlowHasher::new(0x51CC);
        for proto in [Proto::Tcp, Proto::Udp, Proto::Icmp, Proto::Other(89)] {
            for i in 0..500u32 {
                let mut k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
                k.proto = proto;
                // Same address, ports either way; one endpoint to itself.
                let mut tie = key(0x0a00_0001 + i, 80, 0x0a00_0001 + i, 22);
                tie.proto = proto;
                let mut land = key(0x0a00_0001 + i, 80, 0x0a00_0001 + i, 80);
                land.proto = proto;
                let (rk, rtie) = (k.reversed(), tie.reversed());
                let keys = [k, rk, tie, rtie, land, k, tie, rk];
                let tuples = keys.map(|k| raw(&k));
                assert_raw_is_flow_digest(&h, &tuples);
                assert!(h.flow_digest_raw(tuples[0]).forward);
                assert!(!h.flow_digest_raw(tuples[1]).forward);
                assert!(h.flow_digest_raw(tuples[4]).forward, "self-flow");
            }
        }
    }

    #[test]
    fn v6_raw_digest_agrees_with_the_folded_flow_key_path() {
        // IPv6 tuples enter the 32-bit flow model through fold_ip; the raw
        // digest must agree with flow_digest of the folded FlowKey in
        // both directions, so verdict tables keyed by the folded key still
        // match the wire-ingested digests.
        let h = FlowHasher::new(0xD1CE);
        for i in 0..500u128 {
            let src = (0x2001_0db8u128 << 96) | (i << 40) | 0x1234;
            let dst = (0xfd00u128 << 112) | (i << 17) | 7;
            let t = RawTuple {
                src_ip: src,
                dst_ip: dst,
                src_port: 40_000 + (i as u16),
                dst_port: 443,
                proto: 6,
            };
            let rev = RawTuple {
                src_ip: t.dst_ip,
                dst_ip: t.src_ip,
                src_port: t.dst_port,
                dst_port: t.src_port,
                proto: 6,
            };
            let land = RawTuple { dst_ip: src, ..t };
            assert_raw_is_flow_digest(&h, &[t, rev, land, t, rev, land, rev, t]);
            let (fwd, back) = (h.flow_digest_raw(t), h.flow_digest_raw(rev));
            assert_eq!((fwd.canon, fwd.digest), (back.canon, back.digest));
            assert_ne!(fwd.forward, back.forward, "the fold keeps direction");
        }
    }

    #[test]
    fn shard_for_digest_is_symmetric_and_in_range() {
        let h = FlowHasher::new(0x51CC);
        for n in [1usize, 2, 3, 4, 7, 16] {
            for i in 0..500u32 {
                let k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
                let s = shard_for_digest(h.hash_symmetric(&k), n);
                assert!(s < n);
                assert_eq!(s, shard_for_digest(h.hash_symmetric(&k.reversed()), n));
            }
        }
    }

    #[test]
    fn splitmix64_is_deterministic_and_avalanches() {
        assert_eq!(splitmix64(0), splitmix64(0), "stateless and pure");
        let base = splitmix64(0x5EED);
        for bit in 0..64 {
            let flipped = splitmix64(0x5EED ^ (1u64 << bit));
            let dist = (base ^ flipped).count_ones();
            assert!(dist >= 16, "bit {bit} avalanche too weak: {dist}");
        }
    }

    #[test]
    fn digest_set_behaves_like_a_set() {
        let h = FlowHasher::new(9);
        let mut set = DigestSet::default();
        for i in 0..1000u64 {
            assert!(set.insert(h.hash_u64(i).0));
        }
        for i in 0..1000u64 {
            assert!(set.contains(&h.hash_u64(i).0), "digest {i} lost");
            assert!(!set.insert(h.hash_u64(i).0), "duplicate accepted");
        }
        assert!(!set.contains(&h.hash_u64(5000).0));
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn keyed_mix_is_keyed_per_instance() {
        let k = key(0x0a00_0001, 1000, 0x0a00_0002, 22);
        let digests: HashSet<u64> = (0..32).map(|_| KeyedMix::new().hash_one(k)).collect();
        assert_eq!(digests.len(), 32, "every instance draws its own key");
        // A clone is the same function: cloned tables keep their layout.
        let a = KeyedMix::new();
        assert_eq!(a.hash_one(k), a.clone().hash_one(k));
    }

    #[test]
    fn keyed_mix_spreads_structured_keys_over_both_ends_of_the_digest() {
        // hashbrown indexes buckets with the low bits and tags control
        // bytes with the top seven; sequential addresses and ports — what
        // a scan looks like — must fill both evenly.
        let h = KeyedMix::new();
        let (mut low, mut top) = ([0u32; 256], [0u32; 128]);
        for i in 0..64_000u32 {
            let d = h.hash_one(key(
                0x0a00_0000 + i / 250,
                1024 + (i % 250) as u16,
                0xc0a8_0001,
                443,
            ));
            low[(d & 0xff) as usize] += 1;
            top[(d >> 57) as usize] += 1;
        }
        assert!(low.iter().all(|&c| c > 125 && c < 500), "low byte: {low:?}");
        assert!(
            top.iter().all(|&c| c > 250 && c < 1000),
            "top bits: {top:?}"
        );
    }

    #[test]
    fn keyed_mix_distinguishes_byte_strings_by_length_and_tail() {
        let h = KeyedMix::new();
        let data = [0u8; 40];
        let digests: HashSet<u64> = (0..=40).map(|l| h.hash_one(&data[..l])).collect();
        assert_eq!(digests.len(), 41, "zero runs of every length differ");
    }

    #[test]
    fn keyed_mix_map_behaves_like_a_map() {
        let mut m: std::collections::HashMap<FlowKey, u32, KeyedMix> = Default::default();
        for i in 0..5_000u32 {
            assert!(m.insert(key(i, 1, !i, 2), i).is_none());
        }
        for i in 0..5_000u32 {
            assert_eq!(m.get(&key(i, 1, !i, 2)), Some(&i));
            assert_eq!(m.get(&key(i, 2, !i, 2)), None);
        }
        assert_eq!(m.len(), 5_000);
    }

    #[test]
    fn aging_set_expires_untouched_entries() {
        let mut set = AgingDigestSet::new(1024, 10);
        for d in 0..100u64 {
            assert!(set.insert(d, 0));
        }
        // Keep half alive by re-inserting them at epoch 8.
        for d in 0..50u64 {
            assert!(!set.insert(d, 8), "a resident digest is refreshed");
        }
        assert_eq!(set.sweep(11), 50, "untouched half expires past TTL");
        assert_eq!(set.len(), 50);
        for d in 0..50u64 {
            assert!(set.contains(&d), "touched digest {d} must survive");
        }
        for d in 50..100u64 {
            assert!(!set.contains(&d), "stale digest {d} must expire");
        }
        // Survivors expire too once their refreshed stamp goes stale.
        assert_eq!(set.sweep(19), 50);
        assert!(set.is_empty());
    }

    #[test]
    fn aging_set_capacity_evicts_stalest() {
        let mut set = AgingDigestSet::new(4, u64::MAX);
        for (epoch, d) in (100..104u64).enumerate() {
            set.insert(d, epoch as u64);
        }
        assert_eq!(set.len(), 4);
        // Refresh the oldest so the *second*-oldest becomes the victim.
        set.insert(100, 10);
        set.insert(999, 11);
        assert_eq!(set.len(), 4, "capacity bound holds");
        assert!(set.contains(&100), "refreshed entry survives");
        assert!(!set.contains(&101), "stalest entry evicted");
        assert!(set.contains(&999));
    }

    #[test]
    fn aging_set_reinsert_refreshes_instead_of_duplicating() {
        let mut set = AgingDigestSet::new(8, 5);
        assert!(set.insert(42, 0));
        assert!(!set.insert(42, 7), "re-insert refreshes, not duplicates");
        assert_eq!(set.len(), 1);
        assert_eq!(set.sweep(9), 0, "refreshed entry is inside TTL");
        assert!(set.contains(&42));
    }
}
