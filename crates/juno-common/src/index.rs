//! The common interface implemented by every ANN index in the workspace.
//!
//! Both the JUNO engine (`juno-core`) and the baselines (`juno-baseline`)
//! implement [`AnnIndex`], which lets the benchmark harness sweep
//! configurations and compare engines uniformly.

use crate::error::{Error, Result};
use crate::metric::Metric;
use crate::vector::VectorSet;

/// A single retrieved neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Identifier of the search point (its row index in the dataset).
    pub id: u64,
    /// The raw metric value: squared L2 distance (lower is better) or inner
    /// product (higher is better), depending on the index metric.
    pub distance: f32,
}

impl Neighbor {
    /// Creates a neighbour record.
    pub fn new(id: u64, distance: f32) -> Self {
        Self { id, distance }
    }
}

/// The result of searching one query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchResult {
    /// Retrieved neighbours sorted from best to worst.
    pub neighbors: Vec<Neighbor>,
    /// Simulated device time spent on this query, in microseconds.
    ///
    /// Engines that model GPU execution (JUNO, the FAISS-like baselines) fill
    /// this in from the `juno-gpu` cost model; pure-CPU engines may leave it
    /// at zero.
    pub simulated_us: f64,
    /// Statistics about the work performed, used by the breakdown figures.
    pub stats: SearchStats,
}

impl SearchResult {
    /// Ids of the retrieved neighbours, best first.
    pub fn ids(&self) -> Vec<u64> {
        self.neighbors.iter().map(|n| n.id).collect()
    }
}

/// Work counters accumulated while answering one query.
///
/// These counters drive the paper's breakdown figures (Fig. 3(a), Fig. 11(a))
/// and the analytic GPU cost model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchStats {
    /// Pairwise distance computations performed during coarse filtering.
    pub filter_distances: usize,
    /// Pairwise distance computations performed during LUT construction.
    pub lut_distances: usize,
    /// LUT lookups + accumulations performed during distance calculation.
    pub accumulations: usize,
    /// Number of candidate points the distance stage considered. For
    /// fast-scan engines this counts every record the scan *streamed* in the
    /// probed clusters (including points settled by the quantised bound
    /// without an exact evaluation — see `pruned_points`), so the count —
    /// and the simulated stage times derived from it — is **invariant** to
    /// the host-side fast-scan toggle, to the cluster visit order, and to
    /// query-major vs cluster-major (grouped) batch execution;
    /// `accumulations` reflects the exact work actually performed.
    pub candidates: usize,
    /// RT-core work: bounding-box tests (zero for non-RT engines).
    pub rt_aabb_tests: usize,
    /// RT-core work: primitive (sphere) intersection tests.
    pub rt_primitive_tests: usize,
    /// RT-core work: hit-shader invocations.
    pub rt_hits: usize,
    /// Simulated microseconds spent in the filtering stage.
    pub filter_us: f64,
    /// Simulated microseconds spent constructing the L2-LUT.
    pub lut_us: f64,
    /// Simulated microseconds spent in distance calculation / accumulation.
    pub accumulate_us: f64,
    /// Candidates discarded by the quantised fast-scan bound without an
    /// exact distance evaluation (zero for engines without fast-scan).
    pub pruned_points: usize,
    /// Code blocks abandoned mid-accumulation by the early-abandon check.
    pub pruned_blocks: usize,
    /// Whole probed clusters skipped because the top-k worst score already
    /// beat the cluster's score lower bound.
    pub pruned_clusters: usize,
    /// Per-(query, probe) quantised-LUT / decode-buffer builds performed by
    /// the distance stage (zero for engines without fast-scan).
    pub lut_builds: usize,
    /// Scan passes served from an already-built per-(query, probe) LUT
    /// without rebuilding it — e.g. the exact re-rank and tail scans reusing
    /// the decode rows the prune pass expanded (the grouped batch executor's
    /// batch arena caches them per cluster visit).
    pub lut_reuses: usize,
}

impl SearchStats {
    /// Merges the counters of another query into this one (used for batch
    /// averages).
    pub fn merge(&mut self, other: &SearchStats) {
        self.filter_distances += other.filter_distances;
        self.lut_distances += other.lut_distances;
        self.accumulations += other.accumulations;
        self.candidates += other.candidates;
        self.rt_aabb_tests += other.rt_aabb_tests;
        self.rt_primitive_tests += other.rt_primitive_tests;
        self.rt_hits += other.rt_hits;
        self.filter_us += other.filter_us;
        self.lut_us += other.lut_us;
        self.accumulate_us += other.accumulate_us;
        self.pruned_points += other.pruned_points;
        self.pruned_blocks += other.pruned_blocks;
        self.pruned_clusters += other.pruned_clusters;
        self.lut_builds += other.lut_builds;
        self.lut_reuses += other.lut_reuses;
    }

    /// Merges the counters of a query answered **concurrently** with this one
    /// (scatter-gather over shards): work counters sum — every shard really
    /// did that work — but the wall-clock stage times (`filter_us`,
    /// `lut_us`, `accumulate_us`) take the **maximum**, because the shard
    /// scans ran in parallel and the slowest one bounds the stage. Summing
    /// the times here would double-count the stages once per shard and
    /// report an S-shard fleet as S× slower than it is (the PR 4 fix this
    /// rustdoc pins).
    ///
    /// MAX applies to *every* simulated stage-time field and to nothing
    /// else: any future per-stage timer (e.g. timers emitted per
    /// cluster-group by the grouped batch executor, which aggregate into
    /// these same three fields before the scatter merge sees them) must be
    /// added to the max-list below, while plain work counters are covered
    /// automatically by the delegation to [`SearchStats::merge`].
    pub fn merge_scatter(&mut self, other: &SearchStats) {
        // Delegate the counter sums to `merge` (one field list to maintain
        // when counters are added), then replace its time sums with maxima.
        let (filter_us, lut_us, accumulate_us) = (self.filter_us, self.lut_us, self.accumulate_us);
        self.merge(other);
        self.filter_us = filter_us.max(other.filter_us);
        self.lut_us = lut_us.max(other.lut_us);
        self.accumulate_us = accumulate_us.max(other.accumulate_us);
    }

    /// Total simulated time across the three online stages, in microseconds.
    pub fn total_us(&self) -> f64 {
        self.filter_us + self.lut_us + self.accumulate_us
    }
}

/// A point-in-time reading of how far the insert stream has drifted from
/// the distribution the index's trained structures (codebooks, coarse
/// centroids, threshold regressors) were fitted on.
///
/// Produced by [`AnnIndex::drift_report`] for engines that track drift.
/// The two signals are complementary: `drift_ratio` rises when inserted
/// vectors land ever farther from their assigned centroids (the codebooks
/// no longer describe the data), while the tail-fill ratios rise when
/// inserts pile into append tails faster than compaction folds them in
/// (the coarse partitioning no longer balances the data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Mean squared assignment (residual) distance over the build corpus —
    /// the frozen reference the EWMA is compared against.
    pub baseline_mean_sq: f64,
    /// Exponentially weighted moving average of the squared assignment
    /// distance of inserted vectors (equals the baseline until the first
    /// insert).
    pub ewma_sq: f64,
    /// `ewma_sq / baseline_mean_sq` — `1.0` means inserts look like the
    /// training distribution; sustained values well above `1.0` mean the
    /// frozen codebooks have gone stale.
    pub drift_ratio: f64,
    /// Number of inserts folded into the EWMA since the last (re)build.
    pub inserts_tracked: u64,
    /// Largest per-cluster tail-fill ratio (`tail / (base + tail)` records)
    /// across non-empty clusters.
    pub max_tail_fill: f64,
    /// Mean per-cluster tail-fill ratio across non-empty clusters.
    pub mean_tail_fill: f64,
}

/// The interface shared by the JUNO engine and every baseline index.
///
/// `search` takes `&self` so that query batches can be processed from
/// multiple threads. Indexes that support dynamic mutation additionally
/// implement [`AnnIndex::insert`] / [`AnnIndex::remove`] /
/// [`AnnIndex::compact`] (which take `&mut self` and therefore exclude
/// concurrent searches), and persistent indexes implement
/// [`AnnIndex::snapshot`] / [`AnnIndex::restore`]. The defaults return
/// [`Error::Unsupported`] so read-only engines stay trivially conformant.
pub trait AnnIndex: Send + Sync {
    /// The metric this index ranks with.
    fn metric(&self) -> Metric;

    /// Dimensionality of indexed vectors.
    fn dim(&self) -> usize;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Returns `true` when the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Searches the `k` nearest neighbours of one query.
    ///
    /// # Errors
    ///
    /// Implementations return an error if the query dimension does not match
    /// [`AnnIndex::dim`] or the index is not usable.
    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult>;

    /// Searches a batch of queries, returning one result per query.
    ///
    /// The default implementation fans the batch out over a work-stealing
    /// thread pool ([`crate::parallel`]); since `search` takes `&self`, every
    /// implementation is batch-parallel for free. Engines with per-thread
    /// scratch state override it (see `JunoIndex`). Results are ordered by
    /// query and identical to a sequential loop over [`AnnIndex::search`].
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error encountered (by query order).
    fn search_batch(&self, queries: &VectorSet, k: usize) -> Result<Vec<SearchResult>> {
        self.search_batch_threads(queries, k, crate::parallel::default_threads())
    }

    /// [`AnnIndex::search_batch`] with an explicit worker-thread budget
    /// (`1` recovers the sequential loop exactly).
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error encountered (by query order).
    fn search_batch_threads(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        crate::parallel::map(queries.len(), num_threads, |i| {
            self.search(queries.row(i), k)
        })?
        .into_iter()
        .collect()
    }

    /// Returns `true` when this index supports [`AnnIndex::insert`] /
    /// [`AnnIndex::remove`] after construction.
    fn supports_mutation(&self) -> bool {
        false
    }

    /// Returns `true` when this index supports [`AnnIndex::snapshot`] /
    /// [`AnnIndex::restore`].
    fn supports_snapshot(&self) -> bool {
        false
    }

    /// Returns `true` when this index supports the lifecycle operations
    /// [`AnnIndex::rebuild_for_live`] / [`AnnIndex::with_live_ids`] and
    /// reports drift through [`AnnIndex::drift_report`].
    fn supports_rebuild(&self) -> bool {
        false
    }

    /// A point-in-time drift reading (see [`DriftReport`]), or `None` for
    /// indexes that do not track drift.
    fn drift_report(&self) -> Option<DriftReport> {
        None
    }

    /// Retrains the index's learned structures (codebooks, coarse
    /// centroids, calibration) over exactly the vectors in `live` and
    /// re-encodes them, while preserving the id allocator: `live` ids keep
    /// their ids, every other id ever allocated stays burnt, and the ids
    /// handed out after the rebuild continue the original sequence.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] unless [`AnnIndex::supports_rebuild`];
    /// implementations propagate training errors.
    fn rebuild_for_live(&self, live: &[u64]) -> Result<Self>
    where
        Self: Sized,
    {
        let _ = live;
        Err(Error::unsupported(format!(
            "{} does not support background rebuild",
            self.name()
        )))
    }

    /// Derives a sibling index restricted to the `live` ids **without**
    /// retraining: trained structures are shared verbatim, non-listed ids
    /// are dropped from the scan layout, and the id allocator is preserved.
    /// The surgery primitive behind shard split/merge.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] unless [`AnnIndex::supports_rebuild`].
    fn with_live_ids(&self, live: &[u64]) -> Result<Self>
    where
        Self: Sized,
    {
        let _ = live;
        Err(Error::unsupported(format!(
            "{} does not support live-set surgery",
            self.name()
        )))
    }

    /// Inserts one vector into the index and returns its assigned id.
    ///
    /// Ids are monotonically increasing and never reused, so an id retrieved
    /// before a mutation stays meaningful afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for build-once indexes and
    /// [`Error::DimensionMismatch`] when the vector has the wrong dimension.
    fn insert(&mut self, vector: &[f32]) -> Result<u64> {
        let _ = vector;
        Err(Error::unsupported(format!(
            "{} does not support dynamic insertion",
            self.name()
        )))
    }

    /// Removes the vector with the given id.
    ///
    /// Returns `Ok(true)` when the id was present and is now deleted and
    /// `Ok(false)` when it was never indexed or already deleted (removal is
    /// idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for build-once indexes.
    fn remove(&mut self, id: u64) -> Result<bool> {
        let _ = id;
        Err(Error::unsupported(format!(
            "{} does not support dynamic deletion",
            self.name()
        )))
    }

    /// Compacts internal storage after deletions (e.g. physically dropping
    /// tombstoned records and restoring contiguous scan layouts). A no-op for
    /// indexes without deferred deletion; never changes search results.
    ///
    /// # Errors
    ///
    /// Implementation-specific; the default never fails.
    fn compact(&mut self) -> Result<()> {
        Ok(())
    }

    /// Serialises the full index state into the versioned JUNO snapshot
    /// format (see `juno-data`'s `snapshot` module for the container layout).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for engines without persistence.
    fn snapshot(&self) -> Result<Vec<u8>> {
        Err(Error::unsupported(format!(
            "{} does not support snapshot persistence",
            self.name()
        )))
    }

    /// Replaces this index in place with the state decoded from `bytes`
    /// (the inverse of [`AnnIndex::snapshot`]). After a successful restore,
    /// searches are bit-identical to the snapshotted index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for engines without persistence and
    /// [`Error::Corrupted`] / [`Error::InvalidConfig`] for malformed bytes.
    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        let _ = bytes;
        Err(Error::unsupported(format!(
            "{} does not support snapshot persistence",
            self.name()
        )))
    }

    /// Replaces this index in place with state restored from the byte range
    /// `offset..offset + len` of a mapped snapshot file — the out-of-core
    /// sibling of [`AnnIndex::restore`]. Engines that can serve their hot
    /// arrays zero-copy out of the mapping override this (and
    /// [`AnnIndex::supports_mapped_restore`]) and honour `residency` as
    /// their paging budget; the default simply copies the region out of the
    /// mapping and delegates to [`AnnIndex::restore`], so every persistent
    /// engine accepts mapped restores with unchanged semantics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when the range is out of bounds or the
    /// bytes fail validation, plus everything [`AnnIndex::restore`] can
    /// return.
    fn restore_mapped(
        &mut self,
        map: &std::sync::Arc<crate::mmap::Mmap>,
        offset: usize,
        len: usize,
        residency: &crate::mmap::ResidencyConfig,
    ) -> Result<()> {
        let _ = residency;
        let bytes = crate::mmap::MappedBytes::new(map.clone(), offset, len)?;
        self.restore(bytes.as_slice())
    }

    /// Returns `true` when [`AnnIndex::restore_mapped`] serves index data
    /// zero-copy out of the mapping (rather than falling back to the
    /// copying default).
    fn supports_mapped_restore(&self) -> bool {
        false
    }

    /// Persists the index snapshot at `path` under the crash-safe protocol
    /// of [`crate::atomic_file`]: write-temp + fsync + atomic rename, with
    /// the previous on-disk generation rotated to `<path>.prev`. A crash at
    /// any point leaves a loadable snapshot for
    /// [`AnnIndex::load_from_path`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for engines without persistence and
    /// [`Error::Io`] when the filesystem fails.
    fn save_to_path(&self, path: &std::path::Path) -> Result<()> {
        let bytes = self.snapshot()?;
        crate::atomic_file::write_atomic(path, &bytes)
    }

    /// Restores this index from the snapshot at `path`, with torn-write
    /// recovery: when the newest file is truncated or corrupted (it fails
    /// the snapshot layer's checksum / structure validation in
    /// [`AnnIndex::restore`]), the rotated previous generation at
    /// `<path>.prev` is tried next — so a crash mid-save, or damage to the
    /// newest file, silently falls back to the last good snapshot instead
    /// of failing the restart. Never panics on malformed bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when no candidate file exists *or* when a
    /// candidate exists but cannot be read (permissions, I/O failure — a
    /// transient fault is not "nothing persisted"), and the last
    /// candidate's validation error when every on-disk generation is
    /// rejected. On error the index is unchanged (engine restores are
    /// all-or-nothing by contract).
    fn load_from_path(&mut self, path: &std::path::Path) -> Result<()> {
        crate::atomic_file::load_newest(path, |p| std::fs::read(p), |bytes| self.restore(&bytes))
    }

    /// The direction in which this index's raw [`Neighbor::distance`] values
    /// rank, used by scatter-gather layers to merge per-shard results into
    /// one global top-k with [`crate::topk::merge_neighbors`].
    ///
    /// The default follows the metric (L2 ascending, inner product
    /// descending). Engines whose result scores are *not* the metric's raw
    /// values — e.g. hit-count modes, where larger counts are better even
    /// under L2 — must override this so merged rankings match their own.
    fn merge_order(&self) -> crate::topk::ScoreOrder {
        crate::topk::ScoreOrder::from_metric(self.metric())
    }

    /// The ids of every live (searchable) vector, in ascending order.
    ///
    /// The default assumes the contiguous id space `0..len()`, which is
    /// correct for every index that has never been mutated (ids are assigned
    /// densely at build time). Indexes supporting [`AnnIndex::remove`] MUST
    /// override this to skip dead ids, otherwise shard construction and
    /// other id-set consumers would resurrect deleted points.
    fn ids(&self) -> Vec<u64> {
        (0..self.len() as u64).collect()
    }

    /// A short human-readable name used in benchmark reports.
    fn name(&self) -> String {
        std::any::type_name::<Self>()
            .rsplit("::")
            .next()
            .unwrap_or("index")
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::topk::TopK;

    /// A trivial exact index used to exercise the trait's default methods.
    struct Exact {
        points: VectorSet,
        metric: Metric,
    }

    impl AnnIndex for Exact {
        fn metric(&self) -> Metric {
            self.metric
        }
        fn dim(&self) -> usize {
            self.points.dim()
        }
        fn len(&self) -> usize {
            self.points.len()
        }
        fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
            if query.len() != self.dim() {
                return Err(Error::DimensionMismatch {
                    expected: self.dim(),
                    actual: query.len(),
                });
            }
            let mut topk = TopK::new(k, self.metric);
            for (i, row) in self.points.iter().enumerate() {
                topk.push(i as u64, self.metric.distance(query, row));
            }
            Ok(SearchResult {
                neighbors: topk.into_sorted_vec(),
                simulated_us: 0.0,
                stats: SearchStats::default(),
            })
        }
    }

    fn toy_index() -> Exact {
        Exact {
            points: VectorSet::from_rows(vec![
                vec![0.0, 0.0],
                vec![1.0, 0.0],
                vec![5.0, 5.0],
                vec![0.1, 0.1],
            ])
            .unwrap(),
            metric: Metric::L2,
        }
    }

    #[test]
    fn exact_search_finds_nearest() {
        let idx = toy_index();
        let res = idx.search(&[0.0, 0.05], 2).unwrap();
        assert_eq!(res.neighbors[0].id, 0);
        assert_eq!(res.neighbors[1].id, 3);
        assert_eq!(res.ids(), vec![0, 3]);
    }

    #[test]
    fn batch_default_matches_single() {
        let idx = toy_index();
        let queries = VectorSet::from_rows(vec![vec![0.0, 0.0], vec![5.0, 5.0]]).unwrap();
        let batch = idx.search_batch(&queries, 1).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].neighbors[0].id, 0);
        assert_eq!(batch[1].neighbors[0].id, 2);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let idx = toy_index();
        assert!(idx.search(&[0.0], 1).is_err());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SearchStats {
            filter_distances: 1,
            lut_distances: 2,
            accumulations: 3,
            candidates: 4,
            rt_aabb_tests: 5,
            rt_primitive_tests: 6,
            rt_hits: 7,
            filter_us: 1.0,
            lut_us: 2.0,
            accumulate_us: 3.0,
            pruned_points: 8,
            pruned_blocks: 9,
            pruned_clusters: 10,
            lut_builds: 11,
            lut_reuses: 12,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.filter_distances, 2);
        assert_eq!(a.rt_hits, 14);
        assert_eq!(a.pruned_points, 16);
        assert_eq!(a.pruned_blocks, 18);
        assert_eq!(a.pruned_clusters, 20);
        assert_eq!(a.lut_builds, 22);
        assert_eq!(a.lut_reuses, 24);
        assert!((a.total_us() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn merge_scatter_sums_counters_but_maxes_stage_times() {
        // The scatter-gather contract: counters add up across shards (the
        // work really happened on each), wall-clock stage times do NOT —
        // shards scanned in parallel, so the slowest shard bounds each
        // stage. This pins the fix for the latent double-count `merge`
        // would introduce if reused for concurrent shard results.
        let mut gathered = SearchStats {
            filter_distances: 10,
            lut_distances: 20,
            accumulations: 30,
            candidates: 40,
            rt_aabb_tests: 1,
            rt_primitive_tests: 2,
            rt_hits: 3,
            filter_us: 5.0,
            lut_us: 9.0,
            accumulate_us: 1.0,
            pruned_points: 4,
            pruned_blocks: 5,
            pruned_clusters: 6,
            lut_builds: 7,
            lut_reuses: 8,
        };
        let other = SearchStats {
            filter_distances: 1,
            lut_distances: 2,
            accumulations: 3,
            candidates: 4,
            rt_aabb_tests: 5,
            rt_primitive_tests: 6,
            rt_hits: 7,
            filter_us: 7.0,
            lut_us: 2.0,
            accumulate_us: 4.0,
            pruned_points: 8,
            pruned_blocks: 9,
            pruned_clusters: 10,
            lut_builds: 1,
            lut_reuses: 2,
        };
        gathered.merge_scatter(&other);
        assert_eq!(gathered.filter_distances, 11);
        assert_eq!(gathered.lut_distances, 22);
        assert_eq!(gathered.accumulations, 33);
        assert_eq!(gathered.candidates, 44);
        assert_eq!(gathered.rt_aabb_tests, 6);
        assert_eq!(gathered.rt_primitive_tests, 8);
        assert_eq!(gathered.rt_hits, 10);
        assert_eq!(gathered.pruned_points, 12);
        assert_eq!(gathered.pruned_blocks, 14);
        assert_eq!(gathered.pruned_clusters, 16);
        // New counters (incl. the grouped executor's LUT build/reuse pair)
        // flow through the shared `merge` delegation: summed, never maxed.
        assert_eq!(gathered.lut_builds, 8);
        assert_eq!(gathered.lut_reuses, 10);
        // max, not sum: 5+7 would report 12, the double-count.
        assert_eq!(gathered.filter_us, 7.0);
        assert_eq!(gathered.lut_us, 9.0);
        assert_eq!(gathered.accumulate_us, 4.0);
        assert_eq!(gathered.total_us(), 20.0);

        // Plain `merge` (sequential batch accumulation) still sums times.
        let mut sequential = other;
        sequential.merge(&other);
        assert_eq!(sequential.filter_us, 14.0);
    }

    #[test]
    fn default_merge_order_follows_metric_and_ids_are_contiguous() {
        use crate::topk::ScoreOrder;
        let idx = toy_index();
        assert_eq!(idx.merge_order(), ScoreOrder::Ascending);
        assert_eq!(idx.ids(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn default_name_is_type_name() {
        let idx = toy_index();
        assert_eq!(idx.name(), "Exact");
        assert!(!idx.is_empty());
    }

    #[test]
    fn mutation_and_persistence_default_to_unsupported() {
        let mut idx = toy_index();
        assert!(!idx.supports_mutation());
        assert!(!idx.supports_snapshot());
        assert!(matches!(
            idx.insert(&[0.0, 0.0]),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(idx.remove(0), Err(Error::Unsupported(_))));
        assert!(matches!(idx.snapshot(), Err(Error::Unsupported(_))));
        assert!(matches!(idx.restore(&[]), Err(Error::Unsupported(_))));
        // Compaction is a safe no-op by default.
        assert!(idx.compact().is_ok());
        // Lifecycle operations default to unsupported, drift to untracked.
        assert!(!idx.supports_rebuild());
        assert!(idx.drift_report().is_none());
        assert!(matches!(
            idx.rebuild_for_live(&[0]),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            idx.with_live_ids(&[0]),
            Err(Error::Unsupported(_))
        ));
    }
}
