//! Snapshot persistence contract: save → load yields **bit-identical**
//! `SearchResult`s (ids and distance bit patterns) for the JUNO engine and
//! the IVF-PQ baseline, across seeds, metrics, quality modes, and after a
//! mix of inserts / deletions / compaction. Corrupted snapshot bytes must be
//! rejected with an `Err`, never a panic.

use juno::baseline::ivf_flat::{IvfFlatConfig, IvfFlatIndex};
use juno::common::rng::{seeded, Rng};
use juno::prelude::*;
use juno::serve::{ShardRouter, ShardedIndex};

fn assert_same_results(a: &[SearchResult], b: &[SearchResult], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: result count");
    for (qi, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            ra.neighbors.len(),
            rb.neighbors.len(),
            "{label}: query {qi} neighbour count"
        );
        for (i, (na, nb)) in ra.neighbors.iter().zip(&rb.neighbors).enumerate() {
            assert_eq!(na.id, nb.id, "{label}: query {qi} rank {i} id");
            assert_eq!(
                na.distance.to_bits(),
                nb.distance.to_bits(),
                "{label}: query {qi} rank {i} distance bits"
            );
        }
    }
}

fn search_all(index: &dyn AnnIndex, queries: &VectorSet, k: usize) -> Vec<SearchResult> {
    queries
        .iter()
        .map(|q| index.search(q, k).expect("search"))
        .collect()
}

#[test]
fn juno_save_load_is_bit_identical_across_seeds_and_mutations() {
    for seed in [5u64, 77, 2_024] {
        let ds = DatasetProfile::DeepLike
            .generate(1_500, 8, seed)
            .expect("dataset");
        let extra = DatasetProfile::DeepLike
            .generate(120, 1, seed ^ 0xFFFF)
            .expect("extra");
        let mut index = JunoIndex::build(
            &ds.points,
            &JunoConfig {
                n_clusters: 16,
                nprobs: 6,
                pq_entries: 32,
                ..JunoConfig::small_test(ds.dim(), ds.metric())
            },
        )
        .expect("build");

        // Fresh index round-trip.
        let before = search_all(&index, &ds.queries, 25);
        let restored = JunoIndex::from_snapshot_bytes(&index.snapshot().expect("snapshot"))
            .expect("restore fresh");
        assert_same_results(
            &before,
            &search_all(&restored, &ds.queries, 25),
            &format!("seed {seed} fresh"),
        );

        // Property-style mutation loop: random interleaving of inserts and
        // deletes, snapshotting after every round.
        let mut rng = seeded(seed.wrapping_mul(31));
        let mut inserted = 0usize;
        for round in 0..3 {
            for _ in 0..25 {
                if rng.gen_range(0..2usize) == 0 && inserted < extra.points.len() {
                    index.insert(extra.points.row(inserted)).expect("insert");
                    inserted += 1;
                } else {
                    let id = rng.gen_range(0..index.ivf().labels().len());
                    let _ = index.remove(id as u64).expect("remove");
                }
            }
            if round == 2 {
                index.compact().expect("compact");
            }
            let label = format!("seed {seed} round {round}");
            let before = search_all(&index, &ds.queries, 25);
            let bytes = index.snapshot().expect("snapshot");
            let restored = JunoIndex::from_snapshot_bytes(&bytes).expect("restore mutated");
            assert_same_results(&before, &search_all(&restored, &ds.queries, 25), &label);
            assert_eq!(restored.len(), index.len(), "{label}: live count");
        }
    }
}

#[test]
fn juno_save_load_is_bit_identical_under_mips_and_quality_modes() {
    let ds = DatasetProfile::TtiLike.generate(1_200, 8, 44).expect("ds");
    let mut index = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 16,
            nprobs: 8,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");
    for quality in [QualityMode::High, QualityMode::Medium, QualityMode::Low] {
        index.set_quality(quality);
        let before = search_all(&index, &ds.queries, 20);
        let restored =
            JunoIndex::from_snapshot_bytes(&index.snapshot().expect("snapshot")).expect("restore");
        // The quality mode travels inside the snapshot's config section.
        assert_same_results(
            &before,
            &search_all(&restored, &ds.queries, 20),
            &format!("MIPS {quality:?}"),
        );
    }
}

#[test]
fn ivfpq_save_load_is_bit_identical_including_mutations() {
    for seed in [3u64, 91] {
        let ds = DatasetProfile::DeepLike
            .generate(1_500, 8, seed)
            .expect("dataset");
        let mut index = IvfPqIndex::build(
            &ds.points,
            &IvfPqConfig {
                n_clusters: 32,
                nprobs: 8,
                pq_subspaces: ds.dim() / 2,
                pq_entries: 32,
                metric: ds.metric(),
                seed,
            },
        )
        .expect("build");

        let before = search_all(&index, &ds.queries, 25);
        let restored =
            IvfPqIndex::from_snapshot_bytes(&index.snapshot().expect("snap")).expect("restore");
        assert_same_results(
            &before,
            &search_all(&restored, &ds.queries, 25),
            &format!("ivfpq seed {seed} fresh"),
        );

        let mut rng = seeded(seed);
        for _ in 0..60 {
            if rng.gen_range(0..2usize) == 0 {
                let row = rng.gen_range(0..ds.points.len());
                index.insert(ds.points.row(row)).expect("insert");
            } else {
                let id = rng.gen_range(0..ds.points.len());
                let _ = index.remove(id as u64).expect("remove");
            }
        }
        let before = search_all(&index, &ds.queries, 25);
        let restored =
            IvfPqIndex::from_snapshot_bytes(&index.snapshot().expect("snap")).expect("restore");
        assert_same_results(
            &before,
            &search_all(&restored, &ds.queries, 25),
            &format!("ivfpq seed {seed} mutated"),
        );
    }
}

#[test]
fn ivf_flat_save_load_round_trips_through_files() {
    let ds = DatasetProfile::DeepLike.generate(1_000, 6, 7).expect("ds");
    let index = IvfFlatIndex::build(
        ds.points.clone(),
        &IvfFlatConfig {
            n_clusters: 16,
            nprobs: 4,
            metric: ds.metric(),
            seed: 2,
        },
    )
    .expect("build");
    let dir = std::env::temp_dir().join("juno_roundtrip_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("ivf_flat.snap");
    index.save_snapshot(&path).expect("save");
    let restored = IvfFlatIndex::load_snapshot(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_same_results(
        &search_all(&index, &ds.queries, 15),
        &search_all(&restored, &ds.queries, 15),
        "ivf_flat file",
    );
}

#[test]
fn corrupted_or_cross_engine_snapshots_error_never_panic() {
    let ds = DatasetProfile::DeepLike.generate(800, 2, 13).expect("ds");
    let juno = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_entries: 16,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("juno");
    let ivfpq = IvfPqIndex::build(
        &ds.points,
        &IvfPqConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_subspaces: ds.dim() / 2,
            pq_entries: 16,
            metric: ds.metric(),
            seed: 1,
        },
    )
    .expect("ivfpq");
    let juno_bytes = juno.snapshot().expect("snap");
    let ivfpq_bytes = ivfpq.snapshot().expect("snap");

    // Engines must reject each other's snapshots by kind.
    assert!(JunoIndex::from_snapshot_bytes(&ivfpq_bytes).is_err());
    assert!(IvfPqIndex::from_snapshot_bytes(&juno_bytes).is_err());
    assert!(IvfFlatIndex::from_snapshot_bytes(&juno_bytes).is_err());

    // Truncations and random byte flips: always Err (or a successful parse
    // of semantically identical bytes), never a panic.
    let mut rng = seeded(555);
    for len in (0..juno_bytes.len()).step_by(47) {
        assert!(JunoIndex::from_snapshot_bytes(&juno_bytes[..len]).is_err());
    }
    for _ in 0..150 {
        let mut corrupt = juno_bytes.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..corrupt.len());
            corrupt[at] ^= 1 << rng.gen_range(0..8usize);
        }
        let _ = JunoIndex::from_snapshot_bytes(&corrupt);
    }
    for _ in 0..150 {
        let mut corrupt = ivfpq_bytes.clone();
        let at = rng.gen_range(0..corrupt.len());
        corrupt[at] ^= 0xFF;
        let _ = IvfPqIndex::from_snapshot_bytes(&corrupt);
    }
}

/// Rewrites the `u32` section version at byte 8 of `tag`'s payload (every
/// versioned section opens with a `u64` sentinel and then its version),
/// re-checksumming the container so only the version is wrong.
fn with_section_version(bytes: &[u8], kind_word: u32, tag: [u8; 4], version: u32) -> Vec<u8> {
    use juno::data::snapshot::{SectionWriter, Snapshot, SnapshotWriter};
    let snap = Snapshot::parse(bytes).expect("parse snapshot");
    // Section order must match the writer's, or the hot payloads' alignment
    // padding would no longer line up with their absolute file offsets.
    let mut writer = SnapshotWriter::new(kind_word);
    let mut at = 20usize;
    while at < bytes.len() {
        let t: [u8; 4] = bytes[at..at + 4].try_into().unwrap();
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let mut payload = snap.section(t).expect("section").take_rest().to_vec();
        if t == tag {
            payload[8..12].copy_from_slice(&version.to_le_bytes());
        }
        let mut section = SectionWriter::new();
        section.put_raw(&payload);
        writer.add_section(t, section);
        at += 16 + len;
    }
    writer.finish()
}

#[test]
fn older_section_versions_are_rejected_naming_the_version() {
    let ds = DatasetProfile::DeepLike.generate(800, 4, 404).expect("ds");
    let juno = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_entries: 16,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("juno");
    let bytes = juno.snapshot().expect("snapshot");
    let kind_word = juno::core::persist::KIND_JUNO;
    // The unchanged rewrite restores, so every rejection below is the
    // version alone.
    JunoIndex::from_snapshot_bytes(&with_section_version(&bytes, kind_word, *b"NONE", 3))
        .expect("identity rewrite restores");
    for tag in [*b"CODE", *b"LAYT", *b"IVFC", *b"THRM"] {
        for version in [2u32, 7] {
            let old = with_section_version(&bytes, kind_word, tag, version);
            match JunoIndex::from_snapshot_bytes(&old) {
                Err(juno::common::Error::Corrupted(msg)) => assert!(
                    msg.contains(&format!("version {version}")),
                    "{}: message must name version {version}: {msg}",
                    String::from_utf8_lossy(&tag)
                ),
                other => panic!("{tag:?} v{version}: want Corrupted, got {other:?}"),
            }
        }
    }

    // The IVFPQ baseline writes and reads the same CODE layout.
    let ivfpq = IvfPqIndex::build(
        &ds.points,
        &IvfPqConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_subspaces: ds.dim() / 2,
            pq_entries: 16,
            metric: ds.metric(),
            seed: 2,
        },
    )
    .expect("ivfpq");
    let bytes = ivfpq.snapshot().expect("snapshot");
    let old = with_section_version(&bytes, juno::baseline::ivfpq::KIND_IVFPQ, *b"CODE", 2);
    assert!(matches!(
        IvfPqIndex::from_snapshot_bytes(&old),
        Err(juno::common::Error::Corrupted(msg)) if msg.contains("version 2")
    ));
}

// ---------------------------------------------------------------------------
// Sharded (`SHRD`) fleet snapshots.
// ---------------------------------------------------------------------------

fn build_mutated_fleet(seed: u64) -> (ShardedIndex<JunoIndex>, Dataset) {
    let ds = DatasetProfile::DeepLike
        .generate(1_200, 8, seed)
        .expect("ds");
    let monolith = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 16,
            nprobs: 6,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");
    let fleet =
        ShardedIndex::from_monolith(monolith, 3, ShardRouter::Hash { seed: 17 }).expect("fleet");
    // Leave the fleet mid-lifecycle: tails, tombstones, uneven shards.
    let mut rng = seeded(seed ^ 0xF1EE7);
    for _ in 0..40 {
        if rng.gen_range(0..2usize) == 0 {
            let row = rng.gen_range(0..ds.points.len());
            fleet.insert_shared(ds.points.row(row)).expect("insert");
        } else {
            let id = rng.gen_range(0..ds.points.len()) as u64;
            let _ = fleet.remove_shared(id).expect("remove");
        }
    }
    (fleet, ds)
}

#[test]
fn sharded_fleet_snapshot_round_trips_bit_identically() {
    let (fleet, ds) = build_mutated_fleet(606);
    let before = search_all(&fleet, &ds.queries, 25);
    let bytes = fleet.to_snapshot_bytes().expect("fleet snapshot");

    // Restore into a prototype built over unrelated data: the snapshot is
    // the single source of truth for shard count, router and contents.
    let other = DatasetProfile::DeepLike
        .generate(700, 1, 1)
        .expect("proto ds");
    let prototype = JunoIndex::build(
        &other.points,
        &JunoConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_entries: 16,
            ..JunoConfig::small_test(other.dim(), other.metric())
        },
    )
    .expect("proto");
    let restored = ShardedIndex::from_snapshot_bytes(prototype, &bytes).expect("restore");
    assert_eq!(restored.num_shards(), 3);
    assert_eq!(restored.router(), ShardRouter::Hash { seed: 17 });
    assert_eq!(restored.len(), fleet.len());
    assert_eq!(restored.ids(), fleet.ids());
    assert_same_results(
        &before,
        &search_all(&restored, &ds.queries, 25),
        "sharded roundtrip",
    );

    // And the restored fleet keeps serving writes consistently: the same
    // insert lands on the same id on both fleets.
    assert_eq!(
        restored.insert_shared(ds.points.row(0)).expect("insert"),
        fleet.insert_shared(ds.points.row(0)).expect("insert"),
    );
}

#[test]
fn sharded_snapshot_corruption_errors_cleanly_and_leaves_the_fleet_intact() {
    let (fleet, ds) = build_mutated_fleet(909);
    let mut fleet = fleet;
    let bytes = fleet.to_snapshot_bytes().expect("fleet snapshot");
    let reference = search_all(&fleet, &ds.queries, 20);

    // Truncations: always Err, never a panic. The container is multiple
    // megabytes, so sample a spread of cut points (every header/framing
    // boundary lives in the first few hundred bytes, the rest exercises
    // mid-payload cuts) rather than sweeping every offset.
    let cuts = (0..24)
        .map(|i| i * 13)
        .chain((1..=24).map(|i| i * (bytes.len() / 25)));
    for len in cuts {
        let err = fleet
            .restore_from_bytes(&bytes[..len])
            .expect_err("truncated");
        assert!(
            matches!(err, juno::common::Error::Corrupted(_)),
            "truncation to {len} produced {err:?}, expected Corrupted"
        );
    }

    // Per-shard corruption fuzzing: random byte flips all across the
    // container (headers, manifest, shard payloads). Every flip must either
    // be rejected as Corrupted or — when it lands on an uninterpreted byte —
    // restore a semantically identical fleet; a failed restore must leave
    // the serving fleet untouched (spot-checked with a full search sweep,
    // which is the expensive part of the loop).
    let mut rng = seeded(0xBAD5EED);
    for round in 0..120 {
        let mut corrupt = bytes.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..corrupt.len());
            corrupt[at] ^= 1 << rng.gen_range(0..8usize);
        }
        match fleet.restore_from_bytes(&corrupt) {
            Err(err) => {
                assert!(
                    matches!(err, juno::common::Error::Corrupted(_)),
                    "corrupted fleet snapshot produced {err:?}, expected Corrupted"
                );
                if round % 20 == 0 {
                    assert_same_results(
                        &reference,
                        &search_all(&fleet, &ds.queries, 20),
                        "failed restore must not disturb the fleet",
                    );
                }
            }
            Ok(()) => {
                assert_same_results(
                    &reference,
                    &search_all(&fleet, &ds.queries, 20),
                    "surviving flip must be semantically identical",
                );
            }
        }
    }

    // Flips concentrated inside one shard's sub-snapshot payload are caught
    // by the container checksum before the engine decoder ever runs.
    let shard_payload_at = bytes.len() - 64;
    let mut corrupt = bytes.clone();
    corrupt[shard_payload_at] ^= 0xFF;
    assert!(matches!(
        fleet.restore_from_bytes(&corrupt),
        Err(juno::common::Error::Corrupted(_))
    ));
}
