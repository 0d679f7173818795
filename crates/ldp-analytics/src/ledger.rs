//! Per-epoch privacy-budget ledger: at most one report per user per epoch.
//!
//! Under the paper's model every user spends their whole budget ε on a
//! single report per collection round. A client that submits twice — by
//! bug, retry, or malice — would have its two reports averaged into the
//! estimate as if they were independent users, and its *actual* privacy
//! loss would be 2ε while the server still advertises ε. Arcolezi et al.
//! (2022) demonstrate exactly this failure mode in deployed collectors;
//! the `ldp-audit` exemplar guards it with a hash-keyed seen-set, which is
//! the design reproduced here.
//!
//! The ledger stores each user id as a keyed xxhash-style finalizer of it,
//! so two shards given the same key admit/reject identically, which is
//! what makes the ledger [`merge`](BudgetLedger::merge) well-defined. The
//! finalizer is *not* one-way: for a fixed key it is a bijection on
//! `u64` (every step is an invertible xor-shift or odd multiply), so
//! anyone holding the key recovers every stored id from a ledger dump or
//! a checkpoint, and the default `ServiceConfig` key is public. Treat
//! ledger state as holding the raw ids. A keyed one-way hash would change
//! every checkpoint's bytes, so it needs a format version of its own (see
//! [`ldp_core::frame::FORMAT_VERSION`]).
//!
//! An epoch restored from a checkpoint keeps the checkpoint's strictly
//! ascending hash run as it is, rather than hashing every entry into a
//! set: membership is a binary search of the run or a lookup in the live
//! set, which takes every admit after the restore. WAL replay admits each
//! record with one membership probe, and at an epoch's first replayed
//! admit it reserves the live set for the records the epoch has left, so
//! recovery never rehashes a growing set.

use ldp_core::multidim::wire::{BitReader, BitWriter};
use ldp_core::{LdpError, Result};
use std::collections::{BTreeMap, HashSet};

/// Keyed finalizer over a user id: xxhash-style avalanche multiply-shifts.
///
/// Not a cryptographic MAC, and not one-way: for a fixed key it is a
/// bijection, so it makes set membership key-dependent but hides an id
/// from no one who holds the key. The constants are the XXH64 primes.
fn keyed_user_hash(key: u64, user: u64) -> u64 {
    let mut x = user ^ key.rotate_left(32) ^ 0x9E37_79B1_85EB_CA87;
    x ^= x >> 33;
    x = x.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 29;
    x = x.wrapping_mul(0x1656_67B1_9E37_79F9);
    x ^= x >> 32;
    x
}

/// Admission record for one epoch.
#[derive(Debug, Clone, Default)]
struct EpochLedger {
    /// Keyed hashes restored from a checkpoint, strictly ascending.
    restored: Vec<u64>,
    /// Keyed hashes admitted since then; disjoint from `restored`.
    seen: HashSet<u64>,
    /// Reports rejected because their user had already spent this epoch's
    /// budget.
    rejected: u64,
}

impl EpochLedger {
    fn contains(&self, hashed: u64) -> bool {
        self.seen.contains(&hashed) || self.restored.binary_search(&hashed).is_ok()
    }

    /// Records `hashed` as admitted; false if it already was.
    fn insert(&mut self, hashed: u64) -> bool {
        self.restored.binary_search(&hashed).is_err() && self.seen.insert(hashed)
    }

    fn admitted(&self) -> u64 {
        (self.restored.len() + self.seen.len()) as u64
    }
}

/// Tracks which users have spent their per-epoch privacy budget.
///
/// One ledger per service shard; shards constructed with the same key can
/// be [merged](BudgetLedger::merge) and behave exactly like one ledger that
/// saw the union of their streams.
///
/// ```
/// use ldp_analytics::ledger::BudgetLedger;
///
/// let mut ledger = BudgetLedger::with_key(42);
/// assert!(ledger.admit(7, 0).is_ok());   // first report: budget spent
/// assert!(ledger.admit(7, 0).is_err());  // second report, same epoch: rejected
/// assert!(ledger.admit(7, 1).is_ok());   // new epoch: fresh budget
/// assert_eq!(ledger.rejected(0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    key: u64,
    epochs: BTreeMap<u64, EpochLedger>,
}

impl BudgetLedger {
    /// Create a ledger whose user-id hashing is keyed by `key`.
    ///
    /// Every shard of one logical service must use the same key, otherwise
    /// [`merge`](Self::merge) refuses to combine them (the seen-sets would
    /// be incomparable).
    pub fn with_key(key: u64) -> Self {
        BudgetLedger {
            key,
            epochs: BTreeMap::new(),
        }
    }

    /// The hashing key this ledger was built with.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Try to spend `user`'s budget for `epoch`.
    ///
    /// The first call for a given (user, epoch) succeeds; every later one
    /// returns [`LdpError::DuplicateReport`] (carrying the keyed hash, not
    /// the raw id) and bumps the epoch's rejection counter.
    pub fn admit(&mut self, user: u64, epoch: u64) -> Result<()> {
        let hashed = keyed_user_hash(self.key, user);
        let entry = self.epochs.entry(epoch).or_default();
        if entry.insert(hashed) {
            Ok(())
        } else {
            entry.rejected += 1;
            Err(LdpError::DuplicateReport {
                user: hashed,
                epoch,
            })
        }
    }

    /// Spends `user`'s budget for `epoch` if it is unspent, with the one
    /// membership probe [`BudgetLedger::admit`] makes; false, counting no
    /// rejection, if it was already spent. WAL replay admits through it,
    /// so a record the checkpoint already covers is skipped as
    /// [`BudgetLedger::contains`] would skip it, without a second probe.
    pub(crate) fn try_admit(&mut self, user: u64, epoch: u64) -> bool {
        let hashed = keyed_user_hash(self.key, user);
        self.epochs.entry(epoch).or_default().insert(hashed)
    }

    /// Makes room in `epoch`'s live set for `additional` more admits, so
    /// it does not rehash while they arrive; a no-op for an epoch with no
    /// admits, which it does not create.
    pub(crate) fn reserve(&mut self, epoch: u64, additional: usize) {
        if let Some(entry) = self.epochs.get_mut(&epoch) {
            entry.seen.reserve(additional);
        }
    }

    /// Whether `user`'s budget for `epoch` is already spent, *without*
    /// counting a rejection. WAL replay uses this to tell a record the
    /// checkpoint already covers from a damaged one when a record fails
    /// to apply: those skips are recovery bookkeeping, not client
    /// misbehaviour, so they must leave the rejection counters — and
    /// therefore every recovered snapshot — bit-identical to the clean run.
    pub fn contains(&self, user: u64, epoch: u64) -> bool {
        let hashed = keyed_user_hash(self.key, user);
        self.epochs.get(&epoch).is_some_and(|e| e.contains(hashed))
    }

    /// Number of distinct users admitted in `epoch`.
    pub fn admitted(&self, epoch: u64) -> u64 {
        self.epochs.get(&epoch).map_or(0, EpochLedger::admitted)
    }

    /// Number of duplicate reports rejected in `epoch`.
    pub fn rejected(&self, epoch: u64) -> u64 {
        self.epochs.get(&epoch).map_or(0, |e| e.rejected)
    }

    /// Total duplicate rejections across all epochs.
    pub fn total_rejected(&self) -> u64 {
        self.epochs.values().map(|e| e.rejected).sum()
    }

    /// Epochs this ledger has seen at least one report (or rejection) for.
    pub fn epochs(&self) -> impl Iterator<Item = u64> + '_ {
        self.epochs.keys().copied()
    }

    /// Serializes the ledger for an epoch checkpoint: the key, then per
    /// epoch its rejection counter and the *keyed hashes* of every admitted
    /// user, sorted ascending so the encoding is deterministic: a restored
    /// run and the sorted live set, merged. The key travels with the
    /// hashes and inverts them (see the module docs), so the bytes reveal
    /// every admitted id; guard checkpoint files as you would the ids.
    ///
    /// The payload is exact-length: [`BudgetLedger::decode_state`] rejects
    /// any buffer that does not end exactly where the declared counts say
    /// it should.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(self.key, 64);
        w.write_bits(self.epochs.len() as u64, 32);
        for (epoch, entry) in &self.epochs {
            w.write_bits(*epoch, 64);
            w.write_bits(entry.rejected, 64);
            w.write_bits(entry.admitted(), 64);
            let mut live: Vec<u64> = entry.seen.iter().copied().collect();
            live.sort_unstable();
            // Two disjoint ascending runs: merge them into one.
            let (mut restored, mut live) = (entry.restored.as_slice(), live.as_slice());
            while let (Some(&r), Some(&l)) = (restored.first(), live.first()) {
                if r < l {
                    w.write_bits(r, 64);
                    restored = &restored[1..];
                } else {
                    w.write_bits(l, 64);
                    live = &live[1..];
                }
            }
            for &h in restored.iter().chain(live) {
                w.write_bits(h, 64);
            }
        }
        w.finish()
    }

    /// Reconstructs a ledger from [`BudgetLedger::encode_state`] bytes. Each
    /// epoch keeps its stored hash run as it is, searched rather than
    /// rehashed (the hashes were taken under the encoded key, so admission
    /// checks against replayed raw ids keep matching), and every
    /// at-most-once guarantee resumes exactly where the checkpoint left
    /// off.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] on a truncated buffer, a declared
    /// count the buffer cannot hold, a hash run that is not strictly
    /// ascending, or trailing junk bytes.
    pub fn decode_state(bytes: &[u8]) -> Result<BudgetLedger> {
        let mut r = BitReader::new(bytes);
        let key = r.read_bits(64)?;
        let mut ledger = BudgetLedger::with_key(key);
        let epoch_count = r.read_bits(32)?;
        let mut bits = 64usize + 32;
        for _ in 0..epoch_count {
            let epoch = r.read_bits(64)?;
            let rejected = r.read_bits(64)?;
            let seen_len = r.read_bits(64)?;
            bits += 3 * 64;
            // Each hash takes 64 bits: refuse a count the remaining bytes
            // cannot hold before it sizes an allocation.
            let room = (bytes.len() * 8 - bits) / 64;
            if seen_len > room as u64 {
                return Err(LdpError::InvalidParameter {
                    name: "ledger_state",
                    message: format!(
                        "epoch {epoch} declares {seen_len} seen-hashes, \
                         the remaining bytes hold at most {room}"
                    ),
                });
            }
            let seen_len = seen_len as usize;
            let mut restored = Vec::with_capacity(seen_len);
            for _ in 0..seen_len {
                let hashed = r.read_bits(64)?;
                // Ascending order is what membership searches rely on.
                if restored.last().is_some_and(|&prev| prev >= hashed) {
                    return Err(LdpError::InvalidParameter {
                        name: "ledger_state",
                        message: format!("seen-hashes of epoch {epoch} are not strictly ascending"),
                    });
                }
                restored.push(hashed);
            }
            let entry = EpochLedger {
                restored,
                seen: HashSet::new(),
                rejected,
            };
            if ledger.epochs.insert(epoch, entry).is_some() {
                return Err(LdpError::InvalidParameter {
                    name: "ledger_state",
                    message: format!("epoch {epoch} encoded twice"),
                });
            }
            bits += 64 * seen_len;
        }
        if bytes.len() != bits.div_ceil(8) {
            return Err(LdpError::InvalidParameter {
                name: "ledger_state",
                message: format!(
                    "payload is {} bytes but the declared counts need {}",
                    bytes.len(),
                    bits.div_ceil(8)
                ),
            });
        }
        Ok(ledger)
    }

    /// Fold another shard's ledger into this one.
    ///
    /// A user admitted by both shards was double-reported across the wire
    /// boundary; the merge admits them once and counts the overlap as a
    /// rejection, so the merged ledger is indistinguishable from one ledger
    /// that had processed both streams serially. Rejections already counted
    /// by either side carry over. Mismatched keys are a configuration error
    /// and are refused.
    pub fn merge(&mut self, other: BudgetLedger) -> Result<()> {
        if self.key != other.key {
            return Err(LdpError::InvalidParameter {
                name: "ledger_key",
                message: format!(
                    "cannot merge ledgers keyed {:#x} and {:#x}",
                    self.key, other.key
                ),
            });
        }
        for (epoch, theirs) in other.epochs {
            let ours = self.epochs.entry(epoch).or_default();
            ours.rejected += theirs.rejected;
            for hashed in theirs.restored.into_iter().chain(theirs.seen) {
                if !ours.insert(hashed) {
                    ours.rejected += 1;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    #[test]
    fn first_report_admitted_second_rejected_and_counted() {
        let mut ledger = BudgetLedger::with_key(1);
        ledger.admit(99, 0).unwrap();
        let err = ledger.admit(99, 0).unwrap_err();
        assert!(matches!(err, LdpError::DuplicateReport { epoch: 0, .. }));
        assert_eq!(ledger.admitted(0), 1);
        assert_eq!(ledger.rejected(0), 1);
    }

    #[test]
    fn same_user_fresh_epoch_is_admitted() {
        let mut ledger = BudgetLedger::with_key(1);
        ledger.admit(99, 0).unwrap();
        ledger.admit(99, 1).unwrap();
        assert_eq!(ledger.admitted(0), 1);
        assert_eq!(ledger.admitted(1), 1);
        assert_eq!(ledger.total_rejected(), 0);
    }

    #[test]
    fn duplicate_error_carries_the_hash_not_the_id() {
        let mut ledger = BudgetLedger::with_key(7);
        ledger.admit(1234, 5).unwrap();
        match ledger.admit(1234, 5).unwrap_err() {
            LdpError::DuplicateReport { user, epoch } => {
                assert_eq!(epoch, 5);
                assert_ne!(user, 1234, "raw id must not appear in the error");
                assert_eq!(user, keyed_user_hash(7, 1234));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn different_keys_hash_users_differently() {
        assert_ne!(keyed_user_hash(1, 42), keyed_user_hash(2, 42));
        assert_ne!(keyed_user_hash(1, 42), keyed_user_hash(1, 43));
    }

    #[test]
    fn merge_does_not_double_admit() {
        let mut a = BudgetLedger::with_key(3);
        let mut b = BudgetLedger::with_key(3);
        // Users 0..10 on shard A, 5..15 on shard B: 5 users double-reported.
        for u in 0..10 {
            a.admit(u, 0).unwrap();
        }
        for u in 5..15 {
            b.admit(u, 0).unwrap();
        }
        a.merge(b).unwrap();
        assert_eq!(a.admitted(0), 15);
        assert_eq!(a.rejected(0), 5);
        // The merged ledger still rejects everyone it has seen.
        for u in 0..15 {
            assert!(a.admit(u, 0).is_err(), "user {u} re-admitted after merge");
        }
        assert_eq!(a.rejected(0), 20);
    }

    #[test]
    fn merge_carries_over_prior_rejections() {
        let mut a = BudgetLedger::with_key(3);
        let mut b = BudgetLedger::with_key(3);
        a.admit(1, 0).unwrap();
        let _ = a.admit(1, 0);
        b.admit(2, 0).unwrap();
        let _ = b.admit(2, 0);
        a.merge(b).unwrap();
        assert_eq!(a.admitted(0), 2);
        assert_eq!(a.rejected(0), 2);
    }

    #[test]
    fn state_codec_round_trips_and_rejects_length_mismatch() {
        let mut ledger = BudgetLedger::with_key(0x1cde_2019);
        for u in 0..40u64 {
            ledger.admit(u * 31, u % 3).unwrap();
        }
        let _ = ledger.admit(0, 0); // one rejection on record
        let bytes = ledger.encode_state();
        // Deterministic encoding despite HashSet-backed seen-sets.
        assert_eq!(bytes, ledger.encode_state());

        let back = BudgetLedger::decode_state(&bytes).unwrap();
        assert_eq!(back.key(), ledger.key());
        for epoch in 0..3 {
            assert_eq!(back.admitted(epoch), ledger.admitted(epoch));
            assert_eq!(back.rejected(epoch), ledger.rejected(epoch));
        }
        // The restored ledger still rejects every user it had admitted.
        let mut back = back;
        for u in 0..40u64 {
            assert!(back.admit(u * 31, u % 3).is_err(), "user {u} double-spent");
        }

        // Exact-length: trailing junk and truncation are both typed errors.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0u8; 8]);
        assert!(BudgetLedger::decode_state(&long).is_err());
        assert!(BudgetLedger::decode_state(&bytes[..bytes.len() - 1]).is_err());

        // So is a seen-hash count no buffer of this length could hold — it
        // must be refused before it sizes an allocation.
        for seen_len in [1u64 << 40, u64::MAX] {
            let mut w = BitWriter::new();
            for (value, width) in [(7, 64), (1, 32), (0, 64), (0, 64), (seen_len, 64)] {
                w.write_bits(value, width);
            }
            let huge = w.finish();
            assert_eq!(huge.len(), 36);
            assert!(
                matches!(
                    BudgetLedger::decode_state(&huge),
                    Err(LdpError::InvalidParameter {
                        name: "ledger_state",
                        ..
                    })
                ),
                "seen_len {seen_len}"
            );
        }
    }

    #[test]
    fn decode_refuses_a_hash_run_that_is_not_strictly_ascending() {
        let state = |hashes: &[u64]| {
            let mut w = BitWriter::new();
            for (value, width) in [(7, 64), (1, 32), (0, 64), (0, 64)] {
                w.write_bits(value, width);
            }
            w.write_bits(hashes.len() as u64, 64);
            for &h in hashes {
                w.write_bits(h, 64);
            }
            w.finish()
        };
        let ledger = BudgetLedger::decode_state(&state(&[3, 5, 9])).unwrap();
        assert_eq!(ledger.admitted(0), 3);
        for hashes in [[5, 3, 9], [3, 5, 5], [3, 3, 5], [9, 5, 3]] {
            assert!(
                matches!(
                    BudgetLedger::decode_state(&state(&hashes)),
                    Err(LdpError::InvalidParameter {
                        name: "ledger_state",
                        ..
                    })
                ),
                "{hashes:?}"
            );
        }
    }

    #[test]
    fn the_key_alone_inverts_the_user_hash() {
        // Undo each step of `keyed_user_hash` in reverse order: an
        // xor-shift by s >= 32 is its own inverse, and an odd multiplier
        // has an inverse mod 2^64 (Newton's iteration doubles its bits).
        let inverse = |m: u64| {
            (0..5).fold(m, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)))
            })
        };
        let unshift = |x: u64, s: u32| {
            let mut y = x;
            for _ in 0..64 / s {
                y = x ^ (y >> s);
            }
            y
        };
        let key = ServiceConfig::default().ledger_key;
        for user in [0, 1, 42, 1 << 40, u64::MAX] {
            let mut x = keyed_user_hash(key, user);
            x = unshift(x, 32);
            x = unshift(x.wrapping_mul(inverse(0x1656_67B1_9E37_79F9)), 29);
            x = unshift(x.wrapping_mul(inverse(0xC2B2_AE3D_27D4_EB4F)), 33);
            assert_eq!(x ^ key.rotate_left(32) ^ 0x9E37_79B1_85EB_CA87, user);
        }
    }

    #[test]
    fn merge_refuses_mismatched_keys() {
        let mut a = BudgetLedger::with_key(1);
        let b = BudgetLedger::with_key(2);
        assert!(matches!(
            a.merge(b),
            Err(LdpError::InvalidParameter {
                name: "ledger_key",
                ..
            })
        ));
    }

    #[test]
    fn merge_equals_serial_processing() {
        // Partition one interleaved stream across two shards; the merged
        // ledger must match a single ledger that saw the whole stream.
        let stream: Vec<(u64, u64)> = (0..200).map(|i| ((i * 7) % 60, i / 100)).collect();
        let mut single = BudgetLedger::with_key(9);
        for &(u, e) in &stream {
            let _ = single.admit(u, e);
        }

        let mut left = BudgetLedger::with_key(9);
        let mut right = BudgetLedger::with_key(9);
        for (i, &(u, e)) in stream.iter().enumerate() {
            let shard = if i % 2 == 0 { &mut left } else { &mut right };
            let _ = shard.admit(u, e);
        }
        left.merge(right).unwrap();

        for epoch in 0..2 {
            assert_eq!(left.admitted(epoch), single.admitted(epoch));
            assert_eq!(left.rejected(epoch), single.rejected(epoch));
        }
    }
}
