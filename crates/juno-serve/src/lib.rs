//! The JUNO serving layer: a sharded, concurrently readable index fleet.
//!
//! The single-index engines ([`juno_common::AnnIndex`] implementors) answer
//! one process's queries from one monolithic structure with exclusive write
//! access. This crate scales that to a serving tier:
//!
//! * [`ShardedIndex`] — `S` shards published together as one fleet
//!   version. Readers pin a [`FleetReader`] (one `Arc` clone; snapshot
//!   isolation, no locks held while searching); writers clone the shards
//!   they change and publish the next version in one swap, so reads never
//!   block on insert / remove / compaction and never see a partial write.
//! * [`ShardRouter`] — deterministic id → shard ownership (hash or modulo).
//! * Scatter-gather search — per-shard top-k lists merge through the
//!   deterministic tie-by-id merge in [`juno_common::topk::merge_neighbors`];
//!   in global-id mode the merged ids and distance bits are identical to
//!   the monolithic index (the `tests/shard_parity.rs` contract).
//! * [`BackgroundCompactor`] — periodic per-shard compaction off the read
//!   path, surviving (counting, logging, backing off from) sweep failures.
//! * `SHRD` snapshots ([`KIND_SHARD`]) — whole-fleet persistence framing
//!   each shard engine's own snapshot; readers accept only `SHRD`
//!   containers at the current versions, restored by one decoder whether
//!   the file is read or mapped. `save_to_path` /
//!   [`ShardedIndex::from_snapshot_path`] add the crash-safe on-disk
//!   protocol (write-temp + fsync + atomic rename, with a rotated `.prev`
//!   generation for torn-write recovery).
//! * **Fault tolerance** — [`FleetReader::search_deadline`] degrades around
//!   stalled, failing, or panicking shards inside a latency budget
//!   ([`DegradedResult`]), guided by per-shard circuit breakers
//!   ([`health`]); [`fault::FaultPlan`] injects deterministic, replayable
//!   faults at every search / insert / publish / compact / restore point for
//!   chaos testing.
//! * **Durability** ([`durability`]) — an attachable write-ahead log
//!   ([`juno_common::wal`]): every acknowledged mutation is appended (and
//!   fsync'd per policy) *before* its epoch publish, checkpoints snapshot
//!   the fleet and prune covered segments, and
//!   [`ShardedIndex::recover_from_dir`] rebuilds a crashed fleet
//!   bit-identically from snapshot + WAL suffix.
//! * [`Server`] — the online front-end: many client threads submit single
//!   queries through a bounded ingress queue with admission control
//!   ([`juno_common::error::Error::Overloaded`]), a size-or-deadline trigger
//!   coalesces them into batches ([`batcher`]), batches execute through the
//!   degraded read path, and every reply carries per-request QoS stats
//!   ([`ServeStats`]) with aggregate histograms via
//!   [`Server::metrics_snapshot`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batcher;
pub mod durability;
pub mod fault;
pub mod health;
pub mod persist;
pub mod router;
pub mod server;
pub mod shard;

pub use batcher::{Batcher, BatcherConfig, Pending};
pub use durability::{CheckpointReport, DurabilityConfig, RecoveryReport};
pub use fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
pub use health::{BreakerConfig, BreakerState, CircuitBreaker, HealthTracker, RetryPolicy};
pub use persist::KIND_SHARD;
pub use router::{ShardRouter, MAX_SHARDS};
pub use server::{ServeResponse, ServeStats, Server, ServerConfig};
pub use shard::{
    BackgroundCompactor, DegradedBatch, DegradedResult, FleetReader, RebuildPolicy, RebuildReport,
    Rebuilder, ShardState, ShardStatus, ShardedIndex,
};

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::error::{Error, Result};
    use juno_common::index::{AnnIndex, SearchResult, SearchStats};
    use juno_common::metric::Metric;
    use juno_common::topk::TopK;
    use juno_common::vector::VectorSet;
    use juno_data::snapshot::{kind, SectionWriter, Snapshot, SnapshotWriter};
    use std::sync::Arc;
    use std::time::Duration;

    const KIND_MINI: u32 = kind(*b"MINI");

    /// A minimal exhaustive engine with tombstone mutation and snapshot
    /// support, used to exercise the generic fleet machinery without pulling
    /// the real engines into this crate.
    #[derive(Debug, Clone)]
    struct MiniIndex {
        dim: usize,
        rows: Vec<Vec<f32>>,
        dead: Vec<bool>,
    }

    impl MiniIndex {
        fn new(rows: Vec<Vec<f32>>) -> Self {
            let dim = rows.first().map(|r| r.len()).unwrap_or(1);
            let dead = vec![false; rows.len()];
            Self { dim, rows, dead }
        }
    }

    impl AnnIndex for MiniIndex {
        fn metric(&self) -> Metric {
            Metric::L2
        }
        fn dim(&self) -> usize {
            self.dim
        }
        fn len(&self) -> usize {
            self.dead.iter().filter(|&&d| !d).count()
        }
        fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
            if query.len() != self.dim {
                return Err(Error::DimensionMismatch {
                    expected: self.dim,
                    actual: query.len(),
                });
            }
            let mut topk = TopK::new(k, Metric::L2);
            for (id, row) in self.rows.iter().enumerate() {
                if !self.dead[id] {
                    topk.push(id as u64, Metric::L2.distance(query, row));
                }
            }
            Ok(SearchResult {
                neighbors: topk.into_sorted_vec(),
                simulated_us: 1.5,
                stats: SearchStats {
                    candidates: self.len(),
                    filter_us: 2.0,
                    ..SearchStats::default()
                },
            })
        }
        fn supports_mutation(&self) -> bool {
            true
        }
        fn supports_snapshot(&self) -> bool {
            true
        }
        fn insert(&mut self, vector: &[f32]) -> Result<u64> {
            if vector.len() != self.dim {
                return Err(Error::DimensionMismatch {
                    expected: self.dim,
                    actual: vector.len(),
                });
            }
            self.rows.push(vector.to_vec());
            self.dead.push(false);
            Ok((self.rows.len() - 1) as u64)
        }
        fn remove(&mut self, id: u64) -> Result<bool> {
            match self.dead.get_mut(id as usize) {
                Some(slot) if !*slot => {
                    *slot = true;
                    Ok(true)
                }
                _ => Ok(false),
            }
        }
        fn snapshot(&self) -> Result<Vec<u8>> {
            let mut w = SnapshotWriter::new(KIND_MINI);
            let mut s = SectionWriter::new();
            s.put_u64(self.dim as u64);
            s.put_u64(self.rows.len() as u64);
            for row in &self.rows {
                s.put_f32s(row);
            }
            s.put_bools(&self.dead);
            w.add_section(*b"MINI", s);
            Ok(w.finish())
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<()> {
            let snap = Snapshot::parse(bytes)?;
            if snap.kind() != KIND_MINI {
                return Err(Error::corrupted("not a MiniIndex snapshot"));
            }
            let mut r = snap.section(*b"MINI")?;
            let dim = r.get_usize()?;
            let n = r.get_usize()?;
            let rows = (0..n).map(|_| r.get_f32s()).collect::<Result<Vec<_>>>()?;
            let dead = r.get_bools()?;
            if dead.len() != n || rows.iter().any(|row| row.len() != dim) {
                return Err(Error::corrupted("inconsistent MiniIndex snapshot"));
            }
            r.expect_end()?;
            *self = Self { dim, rows, dead };
            Ok(())
        }
        fn ids(&self) -> Vec<u64> {
            (0..self.rows.len() as u64)
                .filter(|&id| !self.dead[id as usize])
                .collect()
        }
        // Exhaustive search has nothing to retrain: a rebuild or a split is
        // pure live-set surgery over the retained rows.
        fn supports_rebuild(&self) -> bool {
            true
        }
        fn rebuild_for_live(&self, live: &[u64]) -> Result<Self> {
            self.with_live_ids(live)
        }
        fn with_live_ids(&self, live: &[u64]) -> Result<Self> {
            let mut next = self.clone();
            for (id, dead) in next.dead.iter_mut().enumerate() {
                *dead = !live.contains(&(id as u64));
            }
            Ok(next)
        }
    }

    fn grid_rows(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| vec![(i % 17) as f32, (i / 17) as f32])
            .collect()
    }

    fn assert_bit_identical(a: &SearchResult, b: &SearchResult, label: &str) {
        assert_eq!(a.neighbors.len(), b.neighbors.len(), "{label}: lengths");
        for (ra, rb) in a.neighbors.iter().zip(&b.neighbors) {
            assert_eq!(ra.id, rb.id, "{label}: ids");
            assert_eq!(
                ra.distance.to_bits(),
                rb.distance.to_bits(),
                "{label}: distance bits"
            );
        }
    }

    #[test]
    fn fleet_matches_monolith_and_survives_mutation() {
        let monolith = MiniIndex::new(grid_rows(120));
        for shards in [1usize, 2, 4, 7] {
            for router in [ShardRouter::Hash { seed: 3 }, ShardRouter::Modulo] {
                let mut mono = monolith.clone();
                let fleet = ShardedIndex::from_monolith(monolith.clone(), shards, router).unwrap();
                assert_eq!(fleet.len(), mono.len());
                assert_eq!(fleet.ids(), mono.ids());
                for q in [[0.0f32, 0.0], [3.5, 2.0], [16.0, 6.0]] {
                    assert_bit_identical(
                        &fleet.search(&q, 9).unwrap(),
                        &mono.search(&q, 9).unwrap(),
                        &format!("S={shards} {router:?} fresh"),
                    );
                }
                // Identical mutation sequence on both sides.
                for i in 0..20 {
                    let v = [(i as f32) * 0.37, 1.0 + (i % 5) as f32];
                    assert_eq!(fleet.insert_shared(&v).unwrap(), mono.insert(&v).unwrap());
                }
                for id in [0u64, 7, 121, 125, 9_999] {
                    assert_eq!(
                        fleet.remove_shared(id).unwrap(),
                        mono.remove(id).unwrap(),
                        "remove {id}"
                    );
                }
                fleet.compact_all_shared().unwrap();
                mono.compact().unwrap();
                assert_eq!(fleet.len(), mono.len());
                assert_eq!(fleet.ids(), mono.ids());
                for q in [[0.2f32, 0.9], [5.0, 5.0]] {
                    assert_bit_identical(
                        &fleet.search(&q, 13).unwrap(),
                        &mono.search(&q, 13).unwrap(),
                        &format!("S={shards} {router:?} mutated"),
                    );
                }
            }
        }
    }

    #[test]
    fn batch_search_gathers_stats_without_time_double_count() {
        let fleet =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(90)), 3, ShardRouter::Modulo)
                .unwrap();
        let queries = VectorSet::from_rows(vec![vec![1.0, 1.0], vec![8.0, 3.0]]).unwrap();
        let results = fleet.search_batch_threads(&queries, 5, 2).unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            // Counters sum across the three shards (90 live points total)…
            assert_eq!(r.stats.candidates, 90);
            // …but per-stage wall clock takes the max, not 3 × 2.0.
            assert_eq!(r.stats.filter_us, 2.0);
            assert_eq!(r.simulated_us, 1.5);
            assert_eq!(r.neighbors.len(), 5);
        }
    }

    #[test]
    fn pinned_reader_is_isolated_from_writers_and_epochs_advance() {
        let fleet = Arc::new(
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(60)), 2, ShardRouter::Modulo)
                .unwrap(),
        );
        let reader = fleet.reader();
        let before = reader.search(&[4.0, 1.0], 6).unwrap();
        let epochs0 = reader.epochs();

        let id = fleet.insert_shared(&[4.0, 1.0]).unwrap();
        fleet.remove_shared(0).unwrap();
        fleet.compact_all_shared().unwrap();

        // The pinned reader still answers from its epoch, bit-identically.
        let after = reader.search(&[4.0, 1.0], 6).unwrap();
        assert_bit_identical(&before, &after, "pinned reader");
        assert_eq!(reader.epochs(), epochs0, "pinned epochs are immutable");

        // A fresh reader observes the new epochs and the new point.
        let fresh = fleet.reader();
        for (old, new) in epochs0.iter().zip(fresh.epochs()) {
            assert!(*old < new, "epochs advance monotonically");
        }
        assert!(fresh.search(&[4.0, 1.0], 6).unwrap().ids().contains(&id));
        assert!(!fresh.search(&[0.0, 0.0], 60).unwrap().ids().contains(&0));
    }

    #[test]
    fn fleet_snapshot_round_trips() {
        let fleet = ShardedIndex::from_monolith(
            MiniIndex::new(grid_rows(80)),
            4,
            ShardRouter::Hash { seed: 9 },
        )
        .unwrap();
        fleet.insert_shared(&[2.5, 2.5]).unwrap();
        fleet.remove_shared(3).unwrap();
        let bytes = fleet.to_snapshot_bytes().unwrap();

        let restored =
            ShardedIndex::from_snapshot_bytes(MiniIndex::new(vec![vec![0.0, 0.0]]), &bytes)
                .unwrap();
        assert_eq!(restored.num_shards(), 4);
        assert_eq!(restored.router(), ShardRouter::Hash { seed: 9 });
        assert_eq!(restored.ids(), fleet.ids());
        assert_bit_identical(
            &restored.search(&[2.5, 2.5], 10).unwrap(),
            &fleet.search(&[2.5, 2.5], 10).unwrap(),
            "fleet snapshot",
        );

        // Plain engine bytes are not a fleet snapshot.
        let mut fleet = fleet;
        let engine_bytes = MiniIndex::new(grid_rows(40)).snapshot().unwrap();
        assert!(matches!(
            fleet.restore_from_bytes(&engine_bytes),
            Err(Error::Corrupted(_))
        ));
        assert_eq!(fleet.num_shards(), 4, "a rejected restore changes nothing");
    }

    #[test]
    fn corrupt_fleet_snapshots_error_and_leave_the_fleet_intact() {
        let mut fleet =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(50)), 2, ShardRouter::Modulo)
                .unwrap();
        let good = fleet.to_snapshot_bytes().unwrap();
        let reference = fleet.search(&[3.0, 1.0], 7).unwrap();
        for at in (0..good.len()).step_by(11) {
            let mut corrupt = good.clone();
            corrupt[at] ^= 0x20;
            if fleet.restore_from_bytes(&corrupt).is_err() {
                assert_bit_identical(
                    &fleet.search(&[3.0, 1.0], 7).unwrap(),
                    &reference,
                    "failed restore must not disturb the fleet",
                );
            }
            // Either rejected, or the flip hit an uninterpreted byte — in
            // which case the restore is semantically identical. Re-restore
            // the good bytes to keep the loop's reference valid.
            fleet.restore_from_bytes(&good).unwrap();
        }
        for len in (0..good.len()).step_by(13) {
            assert!(fleet.restore_from_bytes(&good[..len]).is_err());
        }
    }

    #[test]
    fn mapped_fleets_translate_ids_and_reject_mutation() {
        let rows = grid_rows(30);
        // Shard by parity of the global id; each shard's rows ascend in
        // global id, as the parity contract requires.
        let mut parts: Vec<(Vec<Vec<f32>>, Vec<u64>)> = vec![(vec![], vec![]); 2];
        for (id, row) in rows.iter().enumerate() {
            let s = id % 2;
            parts[s].0.push(row.clone());
            parts[s].1.push(id as u64);
        }
        let fleet = ShardedIndex::from_prebuilt(
            parts
                .into_iter()
                .map(|(rows, map)| (MiniIndex::new(rows), map))
                .collect(),
            ShardRouter::Modulo,
        )
        .unwrap();
        let mono = MiniIndex::new(rows);
        assert_bit_identical(
            &fleet.search(&[2.0, 1.0], 8).unwrap(),
            &mono.search(&[2.0, 1.0], 8).unwrap(),
            "mapped parity",
        );
        assert_eq!(fleet.ids(), mono.ids());
        assert!(!fleet.supports_mutation());
        assert!(matches!(
            fleet.insert_shared(&[0.0, 0.0]),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(fleet.remove_shared(1), Err(Error::Unsupported(_))));
        // Mapped fleets snapshot and restore with their id maps.
        let bytes = fleet.to_snapshot_bytes().unwrap();
        let restored =
            ShardedIndex::from_snapshot_bytes(MiniIndex::new(vec![vec![0.0, 0.0]]), &bytes)
                .unwrap();
        assert_eq!(restored.ids(), mono.ids());
        assert!(!restored.supports_mutation());
    }

    #[test]
    fn construction_errors_are_reported() {
        let mono = MiniIndex::new(grid_rows(10));
        assert!(matches!(
            ShardedIndex::from_monolith(mono.clone(), 0, ShardRouter::Modulo),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedIndex::from_monolith(mono.clone(), MAX_SHARDS + 1, ShardRouter::Modulo),
            Err(Error::InvalidConfig(_))
        ));
        // Colliding global ids across prebuilt shards.
        assert!(matches!(
            ShardedIndex::from_prebuilt(
                vec![
                    (MiniIndex::new(grid_rows(3)), vec![0, 1, 2]),
                    (MiniIndex::new(grid_rows(3)), vec![2, 3, 4]),
                ],
                ShardRouter::Modulo,
            ),
            Err(Error::InvalidConfig(_))
        ));
        // Map length mismatch.
        assert!(matches!(
            ShardedIndex::from_prebuilt(
                vec![(MiniIndex::new(grid_rows(3)), vec![0, 1])],
                ShardRouter::Modulo,
            ),
            Err(Error::InvalidConfig(_))
        ));
        assert!(ShardedIndex::<MiniIndex>::from_prebuilt(vec![], ShardRouter::Modulo).is_err());
    }

    #[test]
    fn background_compactor_sweeps_dirty_shards_only_and_stops() {
        let fleet = Arc::new(
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(40)), 2, ShardRouter::Modulo)
                .unwrap(),
        );
        let compactor = BackgroundCompactor::spawn(fleet.clone(), Duration::from_millis(2));
        let wait_for_runs = |target: u64| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while compactor.runs() < target && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(compactor.runs() >= target, "compactor stalled");
        };

        // Fresh replicas start dirty, so the first sweep publishes each
        // shard exactly once; later sweeps skip the now-clean shards
        // without cloning or bumping epochs.
        wait_for_runs(3);
        assert_eq!(fleet.shard_epochs(), vec![1, 1], "clean shards republished");

        // A mutation re-dirties its owner (id 0 → shard 0 under Modulo):
        // the write publishes epoch 2 and the next sweep compacts to 3,
        // while the untouched shard stays at its first-sweep epoch.
        assert!(fleet.remove_shared(0).unwrap());
        let after_remove = compactor.runs() + 2;
        wait_for_runs(after_remove);
        let epochs = fleet.shard_epochs();
        assert_eq!(epochs[0], 3, "dirty shard swept once after the remove");
        assert_eq!(epochs[1], 1, "clean shard untouched by the sweep");

        drop(compactor);
        assert_eq!(fleet.search(&[1.0, 1.0], 3).unwrap().neighbors.len(), 3);
    }

    /// Shutdown latency must be bounded by the condvar handoff (plus at most
    /// one in-flight sweep), *not* by the configured interval: a compactor
    /// on a 10-second cadence tears down in well under a second.
    #[test]
    fn background_compactor_shutdown_is_prompt_despite_a_long_interval() {
        let fleet = Arc::new(
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(40)), 2, ShardRouter::Modulo)
                .unwrap(),
        );
        let compactor = BackgroundCompactor::spawn(fleet, Duration::from_secs(10));
        // Give the thread time to enter its (10 s) wait.
        std::thread::sleep(Duration::from_millis(20));
        let started = std::time::Instant::now();
        drop(compactor); // joins the thread
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}, bounded by the interval instead of the \
             stop signal",
            started.elapsed()
        );
    }

    /// A zero interval is clamped (to 100µs) rather than busy-spinning on
    /// the writer lock: the compactor still ticks, but the sweep count over
    /// a fixed window stays far below what a hot loop would produce.
    #[test]
    fn background_compactor_zero_interval_does_not_busy_spin() {
        let fleet = Arc::new(
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(40)), 2, ShardRouter::Modulo)
                .unwrap(),
        );
        let compactor = BackgroundCompactor::spawn(fleet, Duration::ZERO);
        let window = Duration::from_millis(50);
        std::thread::sleep(window);
        let runs = compactor.runs();
        assert!(runs >= 1, "clamped interval still ticks");
        // 50ms / 100µs = 500 wakeups maximum; a busy spin would manage
        // orders of magnitude more sweeps of an all-clean fleet.
        let ceiling = (window.as_micros() / 100) as u64 + 50;
        assert!(runs <= ceiling, "{runs} sweeps in {window:?}: busy spin");
        drop(compactor);
    }

    #[test]
    fn mapped_snapshots_with_colliding_id_maps_are_rejected() {
        // A valid two-shard mapped fleet snapshot…
        let fleet = ShardedIndex::from_prebuilt(
            vec![
                (MiniIndex::new(grid_rows(3)), vec![0, 1, 2]),
                (MiniIndex::new(grid_rows(3)), vec![3, 4, 5]),
            ],
            ShardRouter::Modulo,
        )
        .unwrap();
        let good = fleet.to_snapshot_bytes().unwrap();
        // …re-framed with shard 1's id map overlapping shard 0's (checksums
        // recomputed, so only the new cross-shard validation can catch it).
        let snap = Snapshot::parse(&good).unwrap();
        let mut writer = SnapshotWriter::new(KIND_SHARD);
        let mut mani = SectionWriter::new();
        mani.put_raw(snap.section(*b"MANI").unwrap().take_rest());
        writer.add_section(*b"MANI", mani);
        let mut imap = SectionWriter::new();
        imap.put_u64(2);
        imap.put_u64s(&[0, 1, 2]);
        imap.put_u64s(&[2, 3, 4]); // id 2 owned twice
        writer.add_section(*b"IMAP", imap);
        for tag in [*b"S000", *b"S001"] {
            let mut section = SectionWriter::new();
            section.put_raw(snap.section(tag).unwrap().take_rest());
            writer.add_section(tag, section);
        }
        let poisoned = writer.finish();

        let mut target = fleet;
        assert!(matches!(
            target.restore_from_bytes(&poisoned),
            Err(Error::Corrupted(_))
        ));
        // The good bytes still restore.
        target.restore_from_bytes(&good).unwrap();
        assert_eq!(target.ids(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn global_snapshots_with_misrouted_ids_are_rejected() {
        // Container surgery: duplicate shard 0's engine payload into shard
        // 1's section with a consistent manifest. Checksums are all valid,
        // per-shard lengths match — only the live-id routing validation can
        // catch that every id would now be live in two shards.
        let fleet =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(20)), 2, ShardRouter::Modulo)
                .unwrap();
        let good = fleet.to_snapshot_bytes().unwrap();
        let snap = Snapshot::parse(&good).unwrap();
        let shard0_payload = snap.section(*b"S000").unwrap().take_rest().to_vec();
        let n0 = fleet.reader().shard(0).index().len() as u64;

        let mut writer = SnapshotWriter::new(KIND_SHARD);
        let mut mani = SectionWriter::new();
        mani.put_u32(1); // manifest version
        mani.put_u8(0); // global-id mode
        ShardRouter::Modulo.encode(&mut mani);
        mani.put_u64(2);
        mani.put_u64s(&[n0, n0]);
        writer.add_section(*b"MANI", mani);
        for tag in [*b"S000", *b"S001"] {
            let mut section = SectionWriter::new();
            section.put_raw(&shard0_payload);
            writer.add_section(tag, section);
        }
        let poisoned = writer.finish();

        let mut target =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(4)), 1, ShardRouter::Modulo)
                .unwrap();
        assert!(matches!(
            target.restore_from_bytes(&poisoned),
            Err(Error::Corrupted(_))
        ));
        target.restore_from_bytes(&good).unwrap();
        assert_eq!(target.ids(), fleet.ids());
    }

    #[test]
    fn fleet_name_and_capabilities_reflect_the_inner_engine() {
        let fleet =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(12)), 3, ShardRouter::Modulo)
                .unwrap();
        assert!(fleet.name().starts_with("Sharded3x["));
        assert!(fleet.supports_mutation());
        assert!(fleet.supports_snapshot());
        assert_eq!(fleet.metric(), Metric::L2);
        assert_eq!(fleet.dim(), 2);
        assert_eq!(
            fleet.merge_order(),
            juno_common::topk::ScoreOrder::Ascending
        );
    }

    // ---- fault tolerance -------------------------------------------------

    use crate::fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
    use crate::health::{BreakerConfig, BreakerState, RetryPolicy};
    use crate::shard::ShardStatus;
    use std::time::Instant;

    fn four_shard_fleet(n: usize) -> ShardedIndex<MiniIndex> {
        ShardedIndex::from_monolith(
            MiniIndex::new(grid_rows(n)),
            4,
            ShardRouter::Hash { seed: 5 },
        )
        .unwrap()
    }

    /// A rule firing forever on `(shard, op)` starting at op counter 0.
    fn always(shard: usize, op: FaultOp, kind: FaultKind) -> FaultRule {
        FaultRule {
            shard,
            op,
            from_op: 0,
            until_op: None,
            kind,
        }
    }

    /// A rule firing only for the first `n` hits of `(shard, op)`.
    fn first_n(shard: usize, op: FaultOp, n: u64, kind: FaultKind) -> FaultRule {
        FaultRule {
            shard,
            op,
            from_op: 0,
            until_op: Some(n),
            kind,
        }
    }

    #[test]
    fn zero_fault_deadline_search_is_bit_identical_to_plain_search() {
        let fleet = four_shard_fleet(130);
        let reader = fleet.reader();
        for q in [[0.0f32, 0.0], [4.5, 2.5], [16.0, 7.0]] {
            let exact = reader.search(&q, 11).unwrap();
            let degraded = reader
                .search_deadline(&q, 11, Duration::from_secs(10))
                .unwrap();
            assert!(degraded.is_complete());
            assert_eq!(degraded.coverage, 1.0);
            assert!(degraded.shards.iter().all(ShardStatus::is_ok));
            assert_bit_identical(&exact, &degraded.result, "zero-fault deadline");
        }
        // Batch variant against the plain batch path.
        let queries =
            VectorSet::from_rows(vec![vec![1.0, 1.0], vec![9.0, 4.0], vec![0.5, 6.0]]).unwrap();
        let exact = reader.search_batch(&queries, 7).unwrap();
        let degraded = reader
            .search_batch_deadline(&queries, 7, Duration::from_secs(10))
            .unwrap();
        assert_eq!(degraded.coverage, 1.0);
        for (e, d) in exact.iter().zip(&degraded.results) {
            assert_bit_identical(e, d, "zero-fault deadline batch");
        }
    }

    #[test]
    fn stalled_shard_degrades_coverage_and_merges_healthy_shards_exactly() {
        let fleet = four_shard_fleet(130);
        let plan = Arc::new(FaultPlan::new(4).with_rule(always(
            1,
            FaultOp::Search,
            FaultKind::Stall(Duration::from_secs(30)),
        )));
        fleet.set_fault_plan(Some(plan));
        let reader = fleet.reader();
        let budget = Duration::from_millis(300);
        let q = [3.0f32, 2.0];

        let started = Instant::now();
        let degraded = reader.search_deadline(&q, 9, budget).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < budget * 2,
            "degraded search took {elapsed:?} for a {budget:?} budget"
        );
        assert_eq!(degraded.coverage, 0.75, "3 of 4 shards answered");
        for (s, status) in degraded.shards.iter().enumerate() {
            if s == 1 {
                assert_eq!(*status, ShardStatus::TimedOut, "stalled shard");
            } else {
                assert!(status.is_ok(), "healthy shard {s}: {status:?}");
            }
        }
        // The merged result is bit-identical to querying the healthy shards
        // alone and merging their lists.
        let lists: Vec<Vec<juno_common::index::Neighbor>> = [0usize, 2, 3]
            .iter()
            .map(|&s| reader.shard(s).index().search(&q, 9).unwrap().neighbors)
            .collect();
        let expect =
            juno_common::topk::merge_neighbors(&lists, 9, juno_common::topk::ScoreOrder::Ascending);
        assert_eq!(degraded.result.neighbors.len(), expect.len());
        for (got, want) in degraded.result.neighbors.iter().zip(&expect) {
            assert_eq!(got.id, want.id, "healthy-shard merge ids");
            assert_eq!(
                got.distance.to_bits(),
                want.distance.to_bits(),
                "healthy-shard merge distance bits"
            );
        }
    }

    #[test]
    fn transient_search_errors_are_retried_to_full_coverage() {
        let fleet = four_shard_fleet(80);
        // Shard 2's first search attempt fails; the in-request retry's
        // second attempt (op counter 1) passes.
        let plan = Arc::new(FaultPlan::new(4).with_rule(first_n(
            2,
            FaultOp::Search,
            1,
            FaultKind::Transient,
        )));
        fleet.set_fault_plan(Some(plan.clone()));
        let reader = fleet.reader();
        let degraded = reader
            .search_deadline(&[2.0, 2.0], 8, Duration::from_secs(10))
            .unwrap();
        assert_eq!(degraded.coverage, 1.0, "retry hid the transient fault");
        assert!(degraded.is_complete());
        assert!(
            plan.op_count(2, FaultOp::Search) >= 2,
            "the shard really was attempted twice"
        );
        assert_bit_identical(
            &reader.search(&[2.0, 2.0], 8).unwrap(),
            &degraded.result,
            "post-retry result",
        );
    }

    #[test]
    fn panicking_search_worker_is_isolated_and_reported() {
        juno_common::testing::silence_panics();
        let fleet = four_shard_fleet(80);
        let plan =
            Arc::new(FaultPlan::new(4).with_rule(always(3, FaultOp::Search, FaultKind::Panic)));
        fleet.set_fault_plan(Some(plan));
        let reader = fleet.reader();
        let degraded = reader
            .search_deadline(&[1.0, 1.0], 6, Duration::from_secs(10))
            .unwrap();
        assert_eq!(degraded.coverage, 0.75);
        match &degraded.shards[3] {
            ShardStatus::Failed(Error::WorkerPanicked(msg)) => {
                assert!(msg.contains("injected panic"), "panic message: {msg}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The process (and the fleet) survive: clearing the plan restores
        // exact service.
        fleet.set_fault_plan(None);
        let clean = fleet.reader();
        let after = clean
            .search_deadline(&[1.0, 1.0], 6, Duration::from_secs(10))
            .unwrap();
        assert_eq!(after.coverage, 1.0);
    }

    #[test]
    fn plain_search_surfaces_engine_panics_as_worker_panicked() {
        juno_common::testing::silence_panics();
        /// A MiniIndex whose searches always panic — exercises panic
        /// isolation on the *plain* (non-deadline) scatter path, where the
        /// panic unwinds inside a `parallel::map` worker mid-batch.
        #[derive(Debug, Clone)]
        struct PanicMini(MiniIndex);
        impl AnnIndex for PanicMini {
            fn metric(&self) -> Metric {
                self.0.metric()
            }
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn search(&self, _query: &[f32], _k: usize) -> Result<SearchResult> {
                panic!("[injected-fault] engine panic mid-batch");
            }
            fn supports_mutation(&self) -> bool {
                true
            }
            fn insert(&mut self, vector: &[f32]) -> Result<u64> {
                self.0.insert(vector)
            }
            fn remove(&mut self, id: u64) -> Result<bool> {
                self.0.remove(id)
            }
            fn ids(&self) -> Vec<u64> {
                self.0.ids()
            }
        }
        let fleet = ShardedIndex::from_monolith(
            PanicMini(MiniIndex::new(grid_rows(40))),
            2,
            ShardRouter::Modulo,
        )
        .unwrap();
        match fleet.search(&[1.0, 1.0], 4) {
            Err(Error::WorkerPanicked(msg)) => {
                assert!(msg.contains("engine panic mid-batch"), "{msg}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The fleet object is still usable for non-search operations: the
        // panic never poisoned a lock.
        assert_eq!(fleet.num_shards(), 2);
        assert!(fleet.insert_shared(&[0.5, 0.5]).is_ok());
    }

    /// The satellite contract for live health retuning: `configure_health`
    /// works through `&self` on a shared `Arc<ShardedIndex>`, reconfigures
    /// the *same* tracker in place (no new `Arc`), resets every breaker to
    /// closed, and the new tuning is visible to readers pinned **before**
    /// the retune (they share the tracker).
    #[test]
    fn configure_health_retunes_a_live_shared_fleet_in_place() {
        let fleet = Arc::new(four_shard_fleet(40));
        let reader = fleet.reader();
        let tracker = fleet.health();
        // Trip shard 1's breaker under the default tuning.
        let breaker = tracker.breaker(1);
        for _ in 0..tracker.breaker_config().failure_threshold {
            let generation = breaker.admit().expect("closed breaker admits");
            breaker.record_failure(generation);
        }
        assert_eq!(tracker.breaker_states()[1], BreakerState::Open);
        // Retune through &self on the shared fleet: no &mut, no swap.
        fleet.configure_health(
            BreakerConfig {
                failure_threshold: 9,
                ..BreakerConfig::default()
            },
            RetryPolicy {
                max_retries: 7,
                ..RetryPolicy::default()
            },
        );
        assert!(Arc::ptr_eq(&tracker, &fleet.health()));
        assert_eq!(fleet.health().breaker_config().failure_threshold, 9);
        assert_eq!(fleet.health().retry().max_retries, 7);
        // The retune resets every breaker, and the previously pinned reader
        // observes it immediately.
        assert!(reader
            .breaker_states()
            .iter()
            .all(|s| *s == BreakerState::Closed));
    }

    #[test]
    fn persistent_failures_trip_the_breaker_and_recovery_closes_it() {
        let fleet = four_shard_fleet(80);
        fleet.configure_health(
            BreakerConfig {
                failure_threshold: 3,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(20),
                seed: 11,
                ..BreakerConfig::default()
            },
            RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
        );
        let plan =
            Arc::new(FaultPlan::new(4).with_rule(always(2, FaultOp::Search, FaultKind::Fail)));
        fleet.set_fault_plan(Some(plan.clone()));
        let reader = fleet.reader();
        let budget = Duration::from_secs(5);

        // Three consecutive failures trip shard 2's breaker…
        for i in 0..3 {
            let d = reader.search_deadline(&[1.0, 1.0], 5, budget).unwrap();
            assert!(
                matches!(d.shards[2], ShardStatus::Failed(_)),
                "attempt {i}: {:?}",
                d.shards[2]
            );
        }
        assert_eq!(fleet.breaker_states()[2], BreakerState::Open);
        // …after which the shard is skipped without being touched.
        let hits_before = plan.op_count(2, FaultOp::Search);
        let d = reader.search_deadline(&[1.0, 1.0], 5, budget).unwrap();
        assert_eq!(d.shards[2], ShardStatus::SkippedOpen);
        assert_eq!(d.coverage, 0.75);
        assert_eq!(
            plan.op_count(2, FaultOp::Search),
            hits_before,
            "open breaker spends nothing on the dead shard"
        );

        // The fault clears; the half-open probe closes the breaker and
        // coverage returns to 1.0.
        plan.disarm();
        let recovered = Instant::now() + Duration::from_secs(10);
        loop {
            let d = reader.search_deadline(&[1.0, 1.0], 5, budget).unwrap();
            if d.coverage == 1.0 {
                break;
            }
            assert!(Instant::now() < recovered, "breaker never closed");
            std::thread::sleep(Duration::from_millis(3));
        }
        assert_eq!(fleet.breaker_states()[2], BreakerState::Closed);
    }

    #[test]
    fn mid_publish_failure_rolls_every_shard_back_to_its_pre_op_state() {
        let fleet = four_shard_fleet(100);
        // Advance past the fresh state so the pre-op epochs are non-trivial.
        fleet.insert_shared(&[7.0, 7.0]).unwrap();
        let epochs_before = fleet.shard_epochs();
        let ids_before = fleet.ids();
        let reference = fleet.search(&[3.0, 3.0], 9).unwrap();

        // The publish of shard 2 fails once: shards 0 and 1 have already
        // published the new epoch when the kill fires.
        let plan =
            Arc::new(FaultPlan::new(4).with_rule(first_n(2, FaultOp::Publish, 1, FaultKind::Fail)));
        fleet.set_fault_plan(Some(plan));
        let err = fleet.insert_batch_shared(
            &VectorSet::from_rows(vec![vec![8.0, 8.0], vec![9.0, 9.0]]).unwrap(),
        );
        assert!(matches!(err, Err(Error::Unavailable(_))), "{err:?}");

        // Every shard is back on its exact pre-op epoch and id set.
        assert_eq!(fleet.shard_epochs(), epochs_before, "pre-op epochs");
        assert_eq!(fleet.ids(), ids_before, "pre-op id set");
        assert_bit_identical(
            &fleet.search(&[3.0, 3.0], 9).unwrap(),
            &reference,
            "post-rollback search",
        );

        // The fault window has passed: the retried batch applies cleanly and
        // epochs advance from the rolled-back baseline.
        let ids = fleet
            .insert_batch_shared(&VectorSet::from_rows(vec![vec![8.0, 8.0]]).unwrap())
            .unwrap();
        assert_eq!(ids.len(), 1);
        for (before, after) in epochs_before.iter().zip(fleet.shard_epochs()) {
            assert_eq!(after, before + 1, "retry publishes exactly one epoch");
        }
        assert!(fleet.ids().contains(&ids[0]));
    }

    #[test]
    fn writer_panic_mid_publish_rolls_back_and_surfaces_worker_panicked() {
        juno_common::testing::silence_panics();
        let fleet = four_shard_fleet(60);
        let epochs_before = fleet.shard_epochs();
        let ids_before = fleet.ids();
        let plan = Arc::new(FaultPlan::new(4).with_rule(first_n(
            1,
            FaultOp::Publish,
            1,
            FaultKind::Panic,
        )));
        fleet.set_fault_plan(Some(plan));
        match fleet.insert_shared(&[5.0, 5.0]) {
            Err(Error::WorkerPanicked(msg)) => assert!(msg.contains("injected panic"), "{msg}"),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(fleet.shard_epochs(), epochs_before);
        assert_eq!(fleet.ids(), ids_before);
        // The writer lock is not poisoned: the next insert succeeds.
        assert!(fleet.insert_shared(&[5.0, 5.0]).is_ok());
    }

    #[test]
    fn staging_faults_and_remove_faults_leave_the_fleet_untouched() {
        let fleet = four_shard_fleet(60);
        let epochs_before = fleet.shard_epochs();
        let ids_before = fleet.ids();
        let plan =
            Arc::new(FaultPlan::new(4).with_rule(first_n(3, FaultOp::Insert, 1, FaultKind::Fail)));
        fleet.set_fault_plan(Some(plan));
        // Staging shard 3 fails before anything is published.
        assert!(fleet.insert_shared(&[4.0, 4.0]).is_err());
        assert_eq!(fleet.shard_epochs(), epochs_before);
        assert_eq!(fleet.ids(), ids_before);
        // Remove path: fault the owner's publish once.
        let id = 7u64;
        let owner = fleet.router().route(id, 4);
        let plan = Arc::new(FaultPlan::new(4).with_rule(first_n(
            owner,
            FaultOp::Publish,
            1,
            FaultKind::Fail,
        )));
        fleet.set_fault_plan(Some(plan));
        assert!(fleet.remove_shared(id).is_err());
        assert_eq!(fleet.shard_epochs(), epochs_before);
        assert!(fleet.ids().contains(&id), "failed remove keeps the id live");
        // Window passed: the retry removes it.
        assert!(fleet.remove_shared(id).unwrap());
        assert!(!fleet.ids().contains(&id));
    }

    #[test]
    fn compaction_faults_keep_the_shard_dirty_and_surface() {
        let fleet = four_shard_fleet(60);
        fleet.compact_all_shared().unwrap(); // clear construction dirt
        let epochs_clean = fleet.shard_epochs();
        // Dirty shard 0's owner via a remove, then fail its next compaction.
        let id = fleet.ids()[0];
        let owner = fleet.router().route(id, 4);
        fleet.remove_shared(id).unwrap();
        let plan = Arc::new(FaultPlan::new(4).with_rule(first_n(
            owner,
            FaultOp::Compact,
            1,
            FaultKind::Fail,
        )));
        fleet.set_fault_plan(Some(plan));
        assert!(matches!(
            fleet.compact_all_shared(),
            Err(Error::Unavailable(_))
        ));
        // The shard kept its post-remove state and stayed dirty, so the
        // next sweep (past the fault window) compacts it.
        fleet.compact_all_shared().unwrap();
        let epochs = fleet.shard_epochs();
        assert_eq!(
            epochs[owner],
            epochs_clean[owner] + 2,
            "remove + one successful sweep"
        );
        fleet.compact_all_shared().unwrap();
        assert_eq!(fleet.shard_epochs(), epochs, "clean fleet stays put");
    }

    #[test]
    fn background_compactor_survives_faults_and_counts_errors() {
        let fleet = Arc::new(four_shard_fleet(40));
        // Every shard starts dirty; shard 0's first two sweeps fail.
        let plan =
            Arc::new(FaultPlan::new(4).with_rule(first_n(0, FaultOp::Compact, 2, FaultKind::Fail)));
        fleet.set_fault_plan(Some(plan));
        let compactor = BackgroundCompactor::spawn(fleet.clone(), Duration::from_millis(2));
        let deadline = Instant::now() + Duration::from_secs(20);
        while (compactor.errors() < 2 || compactor.runs() < 1) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            compactor.errors() >= 2,
            "compactor saw {} errors",
            compactor.errors()
        );
        assert!(
            compactor.runs() >= 1,
            "compactor never recovered: {} runs",
            compactor.runs()
        );
        drop(compactor);
        // All shards eventually swept clean despite the faults.
        assert_eq!(fleet.shard_epochs(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn restore_faults_leave_the_live_fleet_untouched() {
        juno_common::testing::silence_panics();
        let mut fleet = four_shard_fleet(50);
        let bytes = fleet.to_snapshot_bytes().unwrap();
        let epochs_before = fleet.shard_epochs();
        let reference = fleet.search(&[2.0, 2.0], 6).unwrap();
        for kind in [FaultKind::Fail, FaultKind::Panic] {
            let plan = Arc::new(FaultPlan::new(4).with_rule(first_n(1, FaultOp::Restore, 1, kind)));
            fleet.set_fault_plan(Some(plan));
            assert!(fleet.restore_from_bytes(&bytes).is_err(), "{kind:?}");
            assert_eq!(fleet.shard_epochs(), epochs_before, "{kind:?}");
            assert_bit_identical(
                &fleet.search(&[2.0, 2.0], 6).unwrap(),
                &reference,
                "post-restore-fault search",
            );
        }
        // Past the windows the restore applies.
        fleet.set_fault_plan(None);
        fleet.restore_from_bytes(&bytes).unwrap();
        assert_eq!(fleet.num_shards(), 4);
    }

    #[test]
    fn snapshot_files_round_trip_and_recover_from_torn_writes() {
        let dir = std::env::temp_dir().join(format!("juno_serve_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.snap");

        // Generation 1: the fresh fleet.
        let fleet = four_shard_fleet(70);
        fleet.save_to_path(&path).unwrap();
        let gen1_ids = fleet.ids();
        // Generation 2: after a mutation.
        let id = fleet.insert_shared(&[6.5, 6.5]).unwrap();
        fleet.save_to_path(&path).unwrap();

        // Clean load restores generation 2.
        let restored =
            ShardedIndex::from_snapshot_path(MiniIndex::new(vec![vec![0.0, 0.0]]), &path).unwrap();
        assert_eq!(restored.ids(), fleet.ids());
        assert!(restored.ids().contains(&id));

        // Corrupt the newest generation in place: load falls back to the
        // rotated previous generation without panicking.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        bytes[mid + 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let recovered =
            ShardedIndex::from_snapshot_path(MiniIndex::new(vec![vec![0.0, 0.0]]), &path).unwrap();
        assert_eq!(recovered.ids(), gen1_ids, "fell back to generation 1");

        // Truncate the newest generation: same recovery.
        let full = std::fs::read(&path).unwrap();
        for frac in [0, full.len() / 3, full.len() - 1] {
            std::fs::write(&path, &full[..frac]).unwrap();
            let recovered =
                ShardedIndex::from_snapshot_path(MiniIndex::new(vec![vec![0.0, 0.0]]), &path)
                    .unwrap();
            assert_eq!(recovered.ids(), gen1_ids, "truncated to {frac} bytes");
        }

        // Both generations gone → a clean Io error, never a panic.
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(juno_common::atomic_file::prev_path(&path)).unwrap();
        assert!(matches!(
            ShardedIndex::from_snapshot_path(MiniIndex::new(vec![vec![0.0, 0.0]]), &path),
            Err(Error::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_level_path_persistence_round_trips() {
        let dir = std::env::temp_dir().join(format!("juno_mini_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mini.snap");
        let mini = MiniIndex::new(grid_rows(25));
        mini.save_to_path(&path).unwrap();
        let mut loaded = MiniIndex::new(vec![vec![0.0, 0.0]]);
        loaded.load_from_path(&path).unwrap();
        assert_eq!(loaded.ids(), mini.ids());
        assert_bit_identical(
            &loaded.search(&[1.5, 0.5], 5).unwrap(),
            &mini.search(&[1.5, 0.5], 5).unwrap(),
            "engine path round-trip",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_plans_drive_the_fleet_without_hanging_or_poisoning() {
        juno_common::testing::silence_panics();
        // A fixed-seed smoke version of the full chaos suite: attach a
        // generated plan, hammer reads and writes, assert the fleet always
        // either serves or errors cleanly — and recovers once disarmed.
        for seed in [1u64, 2, 3] {
            let fleet = four_shard_fleet(60);
            let plan = Arc::new(FaultPlan::chaos(seed, 4, Duration::from_millis(5)));
            fleet.set_fault_plan(Some(plan.clone()));
            for i in 0..12 {
                let v = [i as f32, (i % 3) as f32];
                let _ = fleet.insert_shared(&v); // may fault; must not wedge
                let _ = fleet.compact_all_shared();
                let reader = fleet.reader();
                let d = reader
                    .search_deadline(&[1.0, 1.0], 5, Duration::from_millis(100))
                    .unwrap();
                assert!((0.0..=1.0).contains(&d.coverage), "seed {seed}");
            }
            plan.disarm();
            let recovered = Instant::now() + Duration::from_secs(10);
            loop {
                let d = fleet
                    .reader()
                    .search_deadline(&[1.0, 1.0], 5, Duration::from_secs(5))
                    .unwrap();
                if d.coverage == 1.0 {
                    break;
                }
                assert!(Instant::now() < recovered, "seed {seed}: never recovered");
                std::thread::sleep(Duration::from_millis(3));
            }
            // Writers recovered too.
            fleet.insert_shared(&[9.0, 9.0]).unwrap();
        }
    }

    // ---- single-version isolation ----------------------------------------

    /// Blocks until `(shard, op)` has been hit at least once — with a stall
    /// rule on that point, the hitting writer is then parked inside it.
    fn wait_for_hit(plan: &FaultPlan, shard: usize, op: FaultOp) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while plan.op_count(shard, op) == 0 {
            assert!(
                Instant::now() < deadline,
                "{op:?} on shard {shard} never hit"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Every live id across a pinned reader's shards, ascending.
    fn pinned_ids(reader: &FleetReader<MiniIndex>) -> Vec<u64> {
        let mut ids: Vec<u64> = (0..reader.num_shards())
            .flat_map(|s| reader.shard(s).index().ids())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Sixteen points far from the grid, so every one of them routes
    /// somewhere and none ties with an existing row.
    fn far_batch() -> VectorSet {
        VectorSet::from_rows((0..16).map(|i| vec![100.0 + i as f32, 100.0]).collect()).unwrap()
    }

    #[test]
    fn reader_pinned_mid_publish_sees_none_of_a_batch_that_then_fails() {
        let fleet = Arc::new(four_shard_fleet(100));
        let ids_before = fleet.ids();
        // Shard 2's publish point stalls (shards 0 and 1 have passed theirs),
        // then shard 3's fails: the batch is never acknowledged.
        let plan = Arc::new(
            FaultPlan::new(4)
                .with_rule(first_n(
                    2,
                    FaultOp::Publish,
                    1,
                    FaultKind::Stall(Duration::from_millis(400)),
                ))
                .with_rule(first_n(3, FaultOp::Publish, 1, FaultKind::Fail)),
        );
        fleet.set_fault_plan(Some(plan.clone()));
        let writer = {
            let fleet = fleet.clone();
            std::thread::spawn(move || fleet.insert_batch_shared(&far_batch()))
        };
        wait_for_hit(&plan, 2, FaultOp::Publish);
        let pinned = fleet.reader();
        assert_eq!(pinned.len(), 100, "pinned mid-publish: none of the batch");
        assert_eq!(pinned_ids(&pinned), ids_before);

        let outcome = writer.join().unwrap();
        assert!(matches!(outcome, Err(Error::Unavailable(_))), "{outcome:?}");
        assert_eq!(pinned.len(), 100, "still none after the failure");
        assert_eq!(fleet.len(), 100, "the failed batch never published");
        assert_eq!(fleet.ids(), ids_before);
    }

    #[test]
    fn reader_pinned_mid_publish_sees_none_then_all_of_a_stalled_batch() {
        let fleet = Arc::new(four_shard_fleet(100));
        let ids_before = fleet.ids();
        let plan = Arc::new(FaultPlan::new(4).with_rule(first_n(
            2,
            FaultOp::Publish,
            1,
            FaultKind::Stall(Duration::from_millis(400)),
        )));
        fleet.set_fault_plan(Some(plan.clone()));
        let writer = {
            let fleet = fleet.clone();
            std::thread::spawn(move || fleet.insert_batch_shared(&far_batch()))
        };
        wait_for_hit(&plan, 2, FaultOp::Publish);
        let pinned = fleet.reader();
        let seen = pinned_ids(&pinned);
        // Normally the writer is still parked in the stall (none of the
        // batch); a reader descheduled past the stall may see all of it.
        // Never a part.
        assert!(
            seen == ids_before || seen.len() == ids_before.len() + 16,
            "pinned mid-publish saw {} of the batch",
            seen.len() - ids_before.len()
        );

        let ids = writer.join().unwrap().unwrap();
        assert_eq!(ids.len(), 16);
        assert_eq!(pinned_ids(&pinned), seen, "pinned view is immutable");
        let after = fleet.reader();
        assert_eq!(after.len(), 116, "the whole batch is visible");
        let hits = after.search(&[107.5, 100.0], 16).unwrap().ids();
        let mut sorted_hits = hits.clone();
        sorted_hits.sort_unstable();
        let mut sorted_ids = ids.clone();
        sorted_ids.sort_unstable();
        assert_eq!(sorted_hits, sorted_ids, "every batch point is searchable");
    }

    #[test]
    fn reader_pinned_mid_rebuild_swap_sees_one_lineage() {
        let fleet = Arc::new(four_shard_fleet(100));
        fleet.insert_shared(&[3.0, 3.0]).unwrap();
        let pre = fleet.shard_epochs();
        let post: Vec<u64> = pre.iter().map(|e| e + 1).collect();
        let plan = Arc::new(FaultPlan::new(4).with_rule(first_n(
            2,
            FaultOp::RebuildSwap,
            1,
            FaultKind::Stall(Duration::from_millis(400)),
        )));
        fleet.set_fault_plan(Some(plan.clone()));
        let rebuild = {
            let fleet = fleet.clone();
            std::thread::spawn(move || fleet.rebuild_shared())
        };
        wait_for_hit(&plan, 2, FaultOp::RebuildSwap);
        let epochs = fleet.reader().epochs();
        assert!(
            epochs == pre || epochs == post,
            "mid-swap reader pinned a hybrid lineage: {epochs:?} (pre {pre:?})"
        );
        rebuild.join().unwrap().unwrap();
        assert_eq!(fleet.shard_epochs(), post);
    }

    // ---- online serving front-end ----------------------------------------

    use crate::server::{Server, ServerConfig};

    #[test]
    fn server_serves_concurrent_clients_with_correct_results_and_stats() {
        let fleet = Arc::new(four_shard_fleet(60));
        let server = Arc::new(
            Server::spawn(
                fleet.clone(),
                ServerConfig {
                    max_batch: 4,
                    max_delay: Duration::from_millis(2),
                    queue_depth: 64,
                    search_budget: Duration::from_secs(5),
                    dispatchers: 2,
                },
            )
            .unwrap(),
        );
        let clients = 16;
        std::thread::scope(|scope| {
            for c in 0..clients {
                let server = server.clone();
                let fleet = fleet.clone();
                scope.spawn(move || {
                    let q = [c as f32 * 0.37, (c % 5) as f32 * 0.61];
                    let served = server.query(&q, 5).unwrap();
                    let direct = fleet.search(&q, 5).unwrap();
                    assert_eq!(
                        served.result.neighbors, direct.neighbors,
                        "client {c}: batched result differs from direct search"
                    );
                    assert!(served.stats.batch_size >= 1);
                    assert_eq!(served.stats.coverage, 1.0);
                    assert_eq!(served.stats.shards.len(), 4);
                    assert!(served.stats.shards.iter().all(ShardStatus::is_ok));
                });
            }
        });
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.admitted"), clients);
        assert_eq!(snap.counter("serve.rejected"), 0);
        assert_eq!(snap.histograms["serve.latency_ns"].count, clients);
        assert_eq!(snap.histograms["serve.queue_wait_ns"].count, clients);
        let sizes = &snap.histograms["serve.batch_size"];
        assert_eq!(sizes.sum, clients, "every request rode exactly one batch");
        assert!(sizes.max <= 4, "batch exceeded max_batch");
        assert!(snap.counter("serve.dispatched_batches") >= clients / 4);
        assert_eq!(snap.gauge("serve.queue_depth"), 0);
    }

    #[test]
    fn server_rejects_beyond_queue_depth_and_flushes_admitted_work_on_drop() {
        let fleet = Arc::new(four_shard_fleet(40));
        // max_batch is far above what we enqueue and max_delay is huge, so
        // the lone admitted request sits in the queue deterministically
        // until shutdown flushes it.
        let server = Arc::new(
            Server::spawn(
                fleet,
                ServerConfig {
                    max_batch: 64,
                    max_delay: Duration::from_secs(60),
                    queue_depth: 1,
                    search_budget: Duration::from_secs(5),
                    dispatchers: 1,
                },
            )
            .unwrap(),
        );
        let first = {
            let server = server.clone();
            std::thread::spawn(move || server.query(&[1.0, 1.0], 3))
        };
        // Wait until the first request occupies the queue's only slot. The
        // admitted counter is bumped after the enqueue becomes visible, so
        // polling it (not queue_depth) also orders this thread after the
        // client's metric update — the snapshot asserts below would otherwise
        // race it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics_snapshot().counter("serve.admitted") < 1 {
            assert!(Instant::now() < deadline, "first request never enqueued");
            std::thread::yield_now();
        }
        assert_eq!(server.queue_depth(), 1);
        let rejected = server.query(&[2.0, 2.0], 3);
        assert!(
            matches!(rejected, Err(juno_common::Error::Overloaded(_))),
            "expected Overloaded, got {rejected:?}"
        );
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.rejected"), 1);
        assert_eq!(snap.counter("serve.admitted"), 1);
        // Shutdown flushes the admitted request rather than dropping it.
        // (The blocked client thread holds an Arc clone, so Drop alone
        // would wait for it — close ingress explicitly first.)
        server.shutdown();
        let response = first.join().unwrap().unwrap();
        assert_eq!(response.result.neighbors.len(), 3);
        assert_eq!(response.stats.batch_size, 1);
        assert!(matches!(
            server.query(&[3.0, 3.0], 3),
            Err(juno_common::Error::Unavailable(_))
        ));
        drop(server);
    }

    #[test]
    fn server_validates_requests_before_admission() {
        let fleet = Arc::new(four_shard_fleet(20));
        let server = Server::spawn(fleet, ServerConfig::default()).unwrap();
        assert!(matches!(
            server.query(&[1.0, 2.0, 3.0], 5),
            Err(juno_common::Error::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        ));
        assert!(matches!(
            server.query(&[1.0, 2.0], 0),
            Err(juno_common::Error::InvalidConfig(_))
        ));
        let snap = server.metrics_snapshot();
        assert_eq!(
            snap.counter("serve.admitted"),
            0,
            "bad requests never queue"
        );
    }

    #[test]
    fn server_mixed_k_batch_truncates_each_request_exactly() {
        let fleet = Arc::new(four_shard_fleet(60));
        let server = Arc::new(
            Server::spawn(
                fleet.clone(),
                ServerConfig {
                    max_batch: 3,
                    max_delay: Duration::from_secs(60), // size trigger only
                    queue_depth: 16,
                    search_budget: Duration::from_secs(5),
                    dispatchers: 1,
                },
            )
            .unwrap(),
        );
        let ks = [2usize, 5, 9];
        std::thread::scope(|scope| {
            for (i, k) in ks.into_iter().enumerate() {
                let server = server.clone();
                let fleet = fleet.clone();
                scope.spawn(move || {
                    let q = [i as f32, 1.0 - i as f32];
                    let served = server.query(&q, k).unwrap();
                    assert_eq!(served.stats.batch_size, 3, "size trigger formed the batch");
                    let direct = fleet.search(&q, k).unwrap();
                    assert_eq!(
                        served.result.neighbors, direct.neighbors,
                        "k={k}: truncation from k_max broke the prefix property"
                    );
                });
            }
        });
    }

    /// End-to-end QoS under a seeded stall: a stalled shard costs coverage,
    /// never the deadline — p999 stays inside the configured budget — and
    /// after `disarm()` the probe deadline lets the breaker recover to full
    /// coverage even though the abandoned probes never reported.
    #[test]
    fn server_p999_holds_under_stall_and_coverage_recovers_after_disarm() {
        let raw = four_shard_fleet(60);
        raw.configure_health(
            BreakerConfig {
                failure_threshold: 2,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(10),
                probe_timeout: Duration::from_millis(30),
                seed: 13,
            },
            RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
        );
        let fleet = Arc::new(raw);
        let budget = Duration::from_millis(40);
        let server = Server::spawn(
            fleet.clone(),
            ServerConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                queue_depth: 64,
                search_budget: budget,
                dispatchers: 1,
            },
        )
        .unwrap();
        // Shard 2 stalls on every search, well past the batch budget.
        let plan = Arc::new(FaultPlan::new(4).with_rule(always(
            2,
            FaultOp::Search,
            FaultKind::Stall(Duration::from_millis(400)),
        )));
        fleet.set_fault_plan(Some(plan.clone()));
        let mut saw_degraded = false;
        for i in 0..30 {
            let served = server.query(&[i as f32 * 0.1, 0.5], 5).unwrap();
            if served.stats.coverage < 1.0 {
                saw_degraded = true;
            }
        }
        assert!(saw_degraded, "the stall never surfaced as lost coverage");
        let p999 = server.metrics_snapshot().histograms["serve.latency_ns"].p999();
        // End-to-end tail ≤ queueing (max_delay) + batch budget + slack for
        // merge and reply plumbing; far below the 400ms stall.
        let ceiling = (budget + Duration::from_millis(1) + Duration::from_millis(60)).as_nanos();
        assert!(
            u128::from(p999) <= ceiling,
            "p999 {p999}ns exceeds deadline ceiling {ceiling}ns"
        );
        // Disarm and keep querying: the probe deadline re-admits probes that
        // the stall swallowed, so the breaker closes and coverage returns.
        plan.disarm();
        let recovered_by = Instant::now() + Duration::from_secs(10);
        loop {
            let served = server.query(&[0.3, 0.3], 5).unwrap();
            if served.stats.coverage == 1.0 {
                break;
            }
            assert!(
                Instant::now() < recovered_by,
                "coverage never recovered after disarm: {:?}",
                server.breaker_states()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = server.metrics_snapshot();
        assert!(snap.counter("serve.degraded_batches") >= 1);
        assert!(snap.gauge("serve.breaker_transitions") >= 2);
    }

    // ---- durability plane -------------------------------------------------

    use crate::durability::DurabilityConfig;
    use juno_common::wal::{FsyncPolicy, WalOptions};

    fn wal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("juno_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The recovered fleet and the original must agree on ids, search bits,
    /// and — via a probe insert applied to both — id-allocator state.
    fn assert_fleet_equivalent(
        recovered: &ShardedIndex<MiniIndex>,
        reference: &ShardedIndex<MiniIndex>,
        label: &str,
    ) {
        assert_eq!(recovered.ids(), reference.ids(), "{label}: ids");
        for q in [[0.0f32, 0.0], [3.7, 1.1], [16.0, 6.0]] {
            assert_bit_identical(
                &recovered.search(&q, 12).unwrap(),
                &reference.search(&q, 12).unwrap(),
                &format!("{label}: search"),
            );
        }
        let probe = [123.0f32, -45.0];
        assert_eq!(
            recovered.insert_shared(&probe).unwrap(),
            reference.insert_shared(&probe).unwrap(),
            "{label}: id allocator diverged"
        );
    }

    #[test]
    fn wal_recovery_is_bit_identical_to_the_surviving_op_history() {
        let dir = wal_dir("roundtrip");
        // The reference fleet sees the same ops but never crashes.
        let reference = ShardedIndex::from_monolith(
            MiniIndex::new(grid_rows(40)),
            4,
            ShardRouter::Hash { seed: 5 },
        )
        .unwrap();
        let durable = ShardedIndex::from_monolith(
            MiniIndex::new(grid_rows(40)),
            4,
            ShardRouter::Hash { seed: 5 },
        )
        .unwrap();
        let report = durable
            .enable_wal(&dir, DurabilityConfig::default())
            .unwrap();
        assert_eq!(report.covered_lsn, 0, "baseline checkpoint covers nothing");
        assert!(durable.wal_enabled());

        for i in 0..25 {
            let v = [i as f32 * 0.31, (i % 7) as f32];
            assert_eq!(
                durable.insert_shared(&v).unwrap(),
                reference.insert_shared(&v).unwrap()
            );
        }
        for id in [3u64, 41, 44, 9_999] {
            assert_eq!(
                durable.remove_shared(id).unwrap(),
                reference.remove_shared(id).unwrap()
            );
        }
        durable.compact_all_shared().unwrap();
        reference.compact_all_shared().unwrap();
        let batch =
            VectorSet::from_rows(vec![vec![50.0, 1.0], vec![51.0, 2.0], vec![52.0, 3.0]]).unwrap();
        assert_eq!(
            durable.insert_batch_shared(&batch).unwrap(),
            reference.insert_batch_shared(&batch).unwrap()
        );
        // Baseline Checkpoint record + 25 + 3 inserts + 3 live removes
        // + 1 compact = 33 records.
        assert_eq!(durable.wal_last_lsn(), Some(33));

        // "Crash": drop the fleet without checkpointing, recover from disk.
        drop(durable);
        let (recovered, report) = ShardedIndex::recover_from_dir(
            MiniIndex::new(vec![vec![0.0, 0.0]]),
            &dir,
            DurabilityConfig::default(),
        )
        .unwrap();
        assert_eq!(report.checkpoint_lsn, 0);
        assert_eq!(report.last_lsn, 33);
        assert_eq!(report.replayed_ops, 32, "checkpoint marker is not an op");
        assert_eq!(report.skipped_aborted, 0);
        assert_eq!(report.checkpoints_tried, 1);
        assert!(recovered.wal_enabled(), "recovery re-attaches the WAL");
        assert_fleet_equivalent(&recovered, &reference, "no-checkpoint recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_prunes_covered_segments_and_recovery_replays_the_suffix() {
        let dir = wal_dir("ckpt");
        let reference =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(30)), 2, ShardRouter::Modulo)
                .unwrap();
        let durable =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(30)), 2, ShardRouter::Modulo)
                .unwrap();
        // Tiny segments force rotation so the checkpoint has sealed
        // segments to prune.
        durable
            .enable_wal(
                &dir,
                DurabilityConfig {
                    wal: WalOptions {
                        policy: FsyncPolicy::Always,
                        segment_bytes: 256,
                    },
                    keep_checkpoints: 2,
                },
            )
            .unwrap();
        for i in 0..12 {
            let v = [i as f32, 1.0];
            durable.insert_shared(&v).unwrap();
            reference.insert_shared(&v).unwrap();
        }
        let report = durable.checkpoint().unwrap();
        // Baseline Checkpoint record (LSN 1) + 12 inserts.
        assert_eq!(report.covered_lsn, 13);
        assert!(report.pruned_segments > 0, "tiny segments should rotate");

        for i in 12..18 {
            let v = [i as f32, 2.0];
            durable.insert_shared(&v).unwrap();
            reference.insert_shared(&v).unwrap();
        }
        durable.remove_shared(2).unwrap();
        reference.remove_shared(2).unwrap();

        drop(durable);
        let (recovered, report) = ShardedIndex::recover_from_dir(
            MiniIndex::new(vec![vec![0.0, 0.0]]),
            &dir,
            DurabilityConfig::default(),
        )
        .unwrap();
        // The mid-test Checkpoint record itself occupies LSN 14; the
        // replayed suffix = 6 inserts + 1 remove.
        assert_eq!(report.checkpoint_lsn, 13);
        assert_eq!(report.replayed_ops, 7);
        assert_fleet_equivalent(&recovered, &reference, "checkpoint + suffix");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rolled_back_writes_are_aborted_on_the_log_and_skipped_by_replay() {
        let dir = wal_dir("abort");
        let reference = four_shard_fleet(40);
        let durable = four_shard_fleet(40);
        durable
            .enable_wal(&dir, DurabilityConfig::default())
            .unwrap();
        for i in 0..6 {
            let v = [i as f32, 0.5];
            durable.insert_shared(&v).unwrap();
            reference.insert_shared(&v).unwrap();
        }
        // A publish fault *after* the WAL append: the op is on the log but
        // was never acknowledged, and the fleet rolled back. The Abort
        // record must keep replay (and the id allocator) in lockstep with
        // the rolled-back reference.
        let plan =
            Arc::new(FaultPlan::new(4).with_rule(first_n(2, FaultOp::Publish, 1, FaultKind::Fail)));
        durable.set_fault_plan(Some(plan));
        let batch = VectorSet::from_rows(vec![vec![90.0, 90.0], vec![91.0, 91.0]]).unwrap();
        assert!(durable.insert_batch_shared(&batch).is_err());
        durable.set_fault_plan(None);

        // Both sides continue with identical acknowledged histories.
        for i in 6..10 {
            let v = [i as f32, 0.25];
            assert_eq!(
                durable.insert_shared(&v).unwrap(),
                reference.insert_shared(&v).unwrap(),
                "post-rollback id lockstep"
            );
        }
        drop(durable);
        let (recovered, report) = ShardedIndex::recover_from_dir(
            MiniIndex::new(vec![vec![0.0, 0.0]]),
            &dir,
            DurabilityConfig::default(),
        )
        .unwrap();
        assert_eq!(report.skipped_aborted, 2, "the aborted batch is skipped");
        assert_fleet_equivalent(&recovered, &reference, "abort-aware replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_misuse_is_rejected_cleanly() {
        let dir = wal_dir("misuse");
        let fleet = four_shard_fleet(20);
        // Checkpoint without a WAL.
        assert!(matches!(fleet.checkpoint(), Err(Error::InvalidConfig(_))));
        fleet.enable_wal(&dir, DurabilityConfig::default()).unwrap();
        // Double attach.
        assert!(matches!(
            fleet.enable_wal(&dir, DurabilityConfig::default()),
            Err(Error::InvalidConfig(_))
        ));
        // Recovering from a directory that is not a durability dir.
        let empty = wal_dir("misuse_empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            ShardedIndex::recover_from_dir(
                MiniIndex::new(vec![vec![0.0, 0.0]]),
                &empty,
                DurabilityConfig::default(),
            ),
            Err(Error::Io(_))
        ));
        // restore_from_bytes detaches the WAL (the log no longer describes
        // the fleet's history).
        let mut fleet = fleet;
        let bytes = fleet.to_snapshot_bytes().unwrap();
        fleet.restore_from_bytes(&bytes).unwrap();
        assert!(!fleet.wal_enabled(), "restore must detach the WAL");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn server_passthroughs_log_durably_and_merge_wal_metrics() {
        let dir = wal_dir("server");
        let fleet = Arc::new(four_shard_fleet(30));
        fleet.enable_wal(&dir, DurabilityConfig::default()).unwrap();
        let server = Server::spawn(fleet.clone(), ServerConfig::default()).unwrap();
        let id = server.insert(&[7.5, 7.5]).unwrap();
        assert!(server.remove(id).unwrap());
        server.query(&[1.0, 1.0], 3).unwrap();
        let report = server.checkpoint().unwrap();
        // Baseline Checkpoint record + insert + remove.
        assert_eq!(report.covered_lsn, 3, "insert + remove were logged");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("wal.records"), 4, "2 ckpts + 2 mutations");
        assert!(snap.histograms.contains_key("wal.append_ns"));
        assert!(snap.histograms.contains_key("serve.latency_ns"));
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
