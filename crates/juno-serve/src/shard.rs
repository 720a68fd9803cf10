//! The sharded, concurrently readable serving index.
//!
//! [`ShardedIndex`] wraps `S` replicas of an [`AnnIndex`] behind **one
//! published fleet version**: a single `Arc` holding every shard's state
//! ([`ShardState`]), the circuit-breaker tracker sized for exactly those
//! shards, the fault plan and the durability handle. The cell holding it is
//! locked only for the duration of a pointer clone or swap. Readers pin the
//! whole version ([`FleetReader`]) with one `Arc` clone and then search
//! without taking any lock at all. Writers serialise on one writer lock,
//! build the **next** version off to the side — cloning and mutating only
//! the shards they touch (clone-and-publish) — and publish it with one
//! pointer swap. So readers never block on insert / remove / compaction /
//! rebuild / resize, every pinned view is cross-shard consistent, and a
//! pinned reader keeps observing its version bit-identically for as long as
//! it lives.
//!
//! # Ownership and bit-parity
//!
//! The fleet has two construction modes with different guarantees:
//!
//! * **Global-id mode** ([`ShardedIndex::from_monolith`]) — every shard is a
//!   full replica of the monolithic index in which the points *not* owned by
//!   the shard (per the [`ShardRouter`]) are tombstoned. All replicas share
//!   the monolith's trained state (coarse centroids, PQ codebooks, threshold
//!   density maps), and every insert is applied to **every** replica — then
//!   tombstoned on the non-owners within the same atomic publish — so the
//!   id allocators and the density calibration stay in lockstep with a
//!   monolith receiving the same operations. Because each live point is
//!   scored by exactly one shard with exactly the monolith's arithmetic, the
//!   deterministic tie-by-id merge
//!   ([`juno_common::topk::merge_neighbors`]) reconstructs the monolith's
//!   ids and distance **bits** — the contract `tests/shard_parity.rs` pins.
//! * **Mapped mode** ([`ShardedIndex::from_prebuilt`]) — pre-partitioned
//!   sub-indexes with a local→global id map per shard, for engines without
//!   mutation support (Flat, HNSW, IVF-Flat). Such fleets are read-only;
//!   exact engines (Flat) still merge bit-identically to the monolith when
//!   each shard's rows ascend in global id.
//!
//! Searches gather per-shard results with
//! [`SearchStats::merge_scatter`] (work counters sum, wall-clock stage
//! times take the max — the shard scans ran concurrently).
//!
//! # Failure model
//!
//! The exact paths above treat any shard error as fatal to the request. The
//! **degraded read path** ([`FleetReader::search_deadline`] /
//! [`FleetReader::search_batch_deadline`]) instead treats shards as
//! independently failable: each shard scan runs on its own detached worker,
//! transient errors are retried per [`crate::health::RetryPolicy`], shards
//! whose [`crate::health::CircuitBreaker`] is open are skipped outright, and
//! whatever has not answered by the deadline is abandoned. The caller gets a
//! [`DegradedResult`]: the merged top-k over the responsive shards, a
//! [`ShardStatus`] per shard, and the covered fraction. With every shard
//! healthy the merged output is bit-identical to [`FleetReader::search`].
//!
//! Writer paths degrade differently — they are atomic: a failure (or
//! worker panic) anywhere before a writer's single swap has published
//! nothing, so readers never observe a half-applied batch, rebuild or
//! resize. All failure points are instrumented for deterministic chaos
//! testing via [`crate::fault::FaultPlan`].

use crate::durability::{CheckpointReport, Durability, DurabilityConfig, RecoveryReport};
use crate::fault::{FaultOp, FaultPlan};
use crate::health::{BreakerConfig, BreakerState, HealthTracker, RetryPolicy};
use crate::persist;
use crate::router::{ShardRouter, MAX_SHARDS};
use juno_common::atomic_file::load_newest;
use juno_common::error::{Error, Result};
use juno_common::index::{AnnIndex, DriftReport, SearchResult, SearchStats};
use juno_common::metrics::{Registry, RegistrySnapshot};
use juno_common::mmap::Mmap;
use juno_common::parallel;
use juno_common::topk::{merge_neighbors, ScoreOrder};
use juno_common::vector::VectorSet;
use juno_common::wal::{self, Wal, WalRecord};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// One published shard state: the index, the epoch that published it, and
/// (mapped fleets only) the local→global id translation.
#[derive(Debug, Clone)]
pub struct ShardState<I> {
    index: I,
    epoch: u64,
    id_map: Option<Arc<Vec<u64>>>,
    /// Set when the engine may hold uncompacted state (tails / tombstones),
    /// cleared by a compaction sweep: lets
    /// [`ShardedIndex::compact_all_shared`] skip shards with nothing to
    /// compact.
    dirty: bool,
}

impl<I> ShardState<I> {
    /// A freshly staged state. Global-id shards start dirty (fresh replicas,
    /// restores and writes may leave tails / tombstones); read-only mapped
    /// shards never have anything to compact.
    pub(crate) fn new(index: I, epoch: u64, id_map: Option<Arc<Vec<u64>>>) -> Self {
        let dirty = id_map.is_none();
        Self {
            index,
            epoch,
            id_map,
            dirty,
        }
    }

    /// The local→global id map (mapped fleets only).
    pub(crate) fn id_map(&self) -> Option<&Arc<Vec<u64>>> {
        self.id_map.as_ref()
    }
}

impl<I: AnnIndex> ShardState<I> {
    /// The shard's index at this epoch.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The epoch counter this state was published at (starts at 0, bumps on
    /// every publish that changes the shard).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// One published fleet: everything a reader pins and a writer replaces, in
/// a single immutable value. Writers never mutate a published version; they
/// build the next one and swap it in whole, so the shard states, the breaker
/// tracker's shape, the fault plan and the durability handle always belong
/// together.
#[derive(Debug)]
struct FleetVersion<I> {
    shards: Vec<Arc<ShardState<I>>>,
    /// Per-shard circuit breakers + retry policy, sized for `shards`.
    /// Interior-mutable tuning lives inside the tracker
    /// ([`HealthTracker::reconfigure`]), so a version that keeps the shard
    /// count shares its predecessor's tracker (and breaker history).
    health: Arc<HealthTracker>,
    /// Chaos-testing fault plan (`None` in production).
    fault: Option<Arc<FaultPlan>>,
    /// The durability plane (`None` until [`ShardedIndex::enable_wal`] or
    /// [`ShardedIndex::recover_from_dir`] attaches one).
    durability: Option<Arc<Durability>>,
}

// Manual impl: a version clone is a handful of `Arc` clones and needs no
// `I: Clone`.
impl<I> Clone for FleetVersion<I> {
    fn clone(&self) -> Self {
        Self {
            shards: self.shards.clone(),
            health: Arc::clone(&self.health),
            fault: self.fault.clone(),
            durability: self.durability.clone(),
        }
    }
}

impl<I> FleetVersion<I> {
    /// This version with `shards` swapped in; every other field is shared.
    fn with_shards(&self, shards: Vec<Arc<ShardState<I>>>) -> Self {
        Self {
            shards,
            ..self.clone()
        }
    }

    /// The breaker tracker for a `num_shards` fleet: this version's own when
    /// the count matches, otherwise a fresh (all-closed) one with the same
    /// tuning.
    fn health_for(&self, num_shards: usize) -> Arc<HealthTracker> {
        if self.health.num_shards() == num_shards {
            return Arc::clone(&self.health);
        }
        Arc::new(HealthTracker::new(
            num_shards,
            self.health.breaker_config(),
            self.health.retry(),
        ))
    }

    /// The fault-injection point of this version's plan (a no-op without
    /// one).
    fn inject(&self, shard: usize, op: FaultOp) -> Result<()> {
        self.fault
            .as_ref()
            .map_or(Ok(()), |plan| plan.inject(shard, op))
    }

    /// Fires `op`'s injection point once per shard of a `num_shards` fleet,
    /// in shard order — the per-shard kill points just before a swap.
    fn inject_each(&self, num_shards: usize, op: FaultOp) -> Result<()> {
        (0..num_shards).try_for_each(|s| self.inject(s, op))
    }

    /// The epoch fresh states start from after a restore or resize: past
    /// every live epoch, so readers never observe them as stale.
    fn next_base_epoch(&self) -> u64 {
        let max = self.shards.iter().map(|s| s.epoch).max().unwrap_or(0);
        max.saturating_add(1)
    }

    /// Returns an error unless the fleet is in global-id mode (mutation is
    /// undefined for mapped, pre-partitioned fleets).
    fn ensure_global(&self) -> Result<()> {
        if self.shards[0].id_map.is_some() {
            return Err(Error::unsupported(
                "mapped (pre-partitioned) sharded fleets are read-only",
            ));
        }
        Ok(())
    }
}

/// Runs `body`, converting a panic into [`Error::WorkerPanicked`] labelled
/// `what`. Every writer stages under this guard, so a panicking writer has
/// published nothing and releases the writer lock cleanly.
fn guarded<T>(what: impl std::fmt::Display, body: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        Err(Error::worker_panicked(format!(
            "{what}: {}",
            parallel::panic_message(&*payload)
        )))
    })
}

/// A pinned, immutable point-in-time view of the whole fleet.
///
/// Pinning is one `Arc` clone of the published fleet version; afterwards
/// every search on the reader runs lock-free against exactly that version —
/// concurrent writers publish new versions without disturbing it (snapshot
/// isolation). Re-running a search on the same reader is bit-identical no
/// matter what the writers did in between.
#[derive(Debug, Clone)]
pub struct FleetReader<I: AnnIndex> {
    /// The pinned version. Its health tracker is shared with the fleet (and
    /// every other reader of a same-shaped version): breaker decisions made
    /// by one reader's degraded searches benefit the next.
    version: Arc<FleetVersion<I>>,
}

/// Per-shard outcome of a deadline-aware degraded search.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardStatus {
    /// The shard answered within the deadline; its candidates are merged.
    Ok,
    /// The shard did not answer before the deadline; its worker was
    /// abandoned (it finishes in the background and is discarded).
    TimedOut,
    /// The shard's scan failed (after exhausting transient-error retries)
    /// or its worker panicked; the error is preserved verbatim.
    Failed(Error),
    /// The shard's circuit breaker was open, so it was skipped without
    /// being touched (and without spending deadline budget on it).
    SkippedOpen,
}

impl ShardStatus {
    /// `true` when the shard contributed candidates to the merged result.
    pub fn is_ok(&self) -> bool {
        matches!(self, ShardStatus::Ok)
    }
}

/// The outcome of [`FleetReader::search_deadline`]: the merged top-k over
/// every responsive shard plus an account of who responded.
#[derive(Debug, Clone)]
pub struct DegradedResult {
    /// Merged top-k from the responsive shards (bit-identical to
    /// [`FleetReader::search`] when `coverage == 1.0`).
    pub result: SearchResult,
    /// Outcome per shard, indexed by shard id.
    pub shards: Vec<ShardStatus>,
    /// Fraction of shards that contributed: `Ok` shards / total shards.
    pub coverage: f64,
}

impl DegradedResult {
    /// `true` when every shard contributed (the result is exact, not
    /// degraded).
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(ShardStatus::is_ok)
    }
}

/// The outcome of [`FleetReader::search_batch_deadline`]. The whole batch
/// shares one scatter: each shard scans the full batch on its worker, so the
/// per-shard statuses and coverage apply to every query in the batch.
#[derive(Debug, Clone)]
pub struct DegradedBatch {
    /// Merged per-query top-k lists, indexed by query.
    pub results: Vec<SearchResult>,
    /// Outcome per shard, indexed by shard id.
    pub shards: Vec<ShardStatus>,
    /// Fraction of shards that contributed: `Ok` shards / total shards.
    pub coverage: f64,
}

impl DegradedBatch {
    /// `true` when every shard contributed.
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(ShardStatus::is_ok)
    }
}

/// One shard's scan on the degraded path: fault injection, panic isolation,
/// and bounded retry for transient errors — everything that runs *on the
/// worker thread*, so a stall or panic here never touches the caller.
fn scan_shard_guarded<I: AnnIndex>(
    state: &ShardState<I>,
    s: usize,
    queries: &VectorSet,
    k: usize,
    deadline: Instant,
    fault: Option<&FaultPlan>,
    retry: RetryPolicy,
) -> Result<Vec<SearchResult>> {
    let mut attempt = 0u32;
    loop {
        let result = guarded(format_args!("shard {s} search worker"), || {
            if let Some(plan) = fault {
                plan.inject(s, FaultOp::Search)?;
            }
            // Inner thread budget 1: the scatter already gave this shard a
            // dedicated worker, and engine results are thread-invariant.
            state.index.search_batch_threads(queries, k, 1)
        });
        match result {
            Ok(batch) => return Ok(batch),
            Err(err) if err.is_retryable() && attempt < retry.max_retries => {
                attempt += 1;
                let sleep = retry.backoff_for(attempt);
                if Instant::now() + sleep >= deadline {
                    return Err(err); // no budget left to retry in
                }
                std::thread::sleep(sleep);
            }
            Err(err) => return Err(err),
        }
    }
}

impl<I: AnnIndex> FleetReader<I> {
    /// Number of shards pinned.
    pub fn num_shards(&self) -> usize {
        self.version.shards.len()
    }

    /// The pinned epoch of every shard, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.version.shards.iter().map(|s| s.epoch).collect()
    }

    /// Borrow of one pinned shard state.
    pub fn shard(&self, s: usize) -> &ShardState<I> {
        &self.version.shards[s]
    }

    /// Total live vectors across all pinned shards.
    pub fn len(&self) -> usize {
        self.version.shards.iter().map(|s| s.index.len()).sum()
    }

    /// Returns `true` when no shard holds a live vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaps a shard's neighbours into the global id space and re-sorts
    /// under the merge order (mapped shards only; a no-op for global-id
    /// shards, whose lists already arrive merge-ordered).
    fn globalise(&self, s: usize, result: &mut SearchResult, order: ScoreOrder) {
        if let Some(map) = &self.shard(s).id_map {
            for n in &mut result.neighbors {
                n.id = map[n.id as usize];
            }
            result.neighbors.sort_by(|a, b| order.cmp_neighbors(a, b));
        }
    }

    /// Gathers per-shard results for one query into the global top-k. Each
    /// entry carries its true shard index so a degraded gather (a subset of
    /// shards) still translates mapped ids correctly; the merge itself is
    /// order-independent (deterministic tie by id), so merging a subset is
    /// bit-identical to a fleet that only contained those shards.
    fn gather_indexed(
        &self,
        per_shard: Vec<(usize, SearchResult)>,
        k: usize,
        order: ScoreOrder,
    ) -> SearchResult {
        let mut stats = SearchStats::default();
        let mut simulated_us = 0.0f64;
        let mut lists = Vec::with_capacity(per_shard.len());
        for (s, mut result) in per_shard {
            self.globalise(s, &mut result, order);
            stats.merge_scatter(&result.stats);
            simulated_us = simulated_us.max(result.simulated_us);
            lists.push(result.neighbors);
        }
        SearchResult {
            neighbors: merge_neighbors(&lists, k, order),
            simulated_us,
            stats,
        }
    }

    /// Gathers a full (every-shard) scatter for one query.
    fn gather(&self, per_shard: Vec<SearchResult>, k: usize, order: ScoreOrder) -> SearchResult {
        self.gather_indexed(per_shard.into_iter().enumerate().collect(), k, order)
    }

    /// Scatter-gather search of one query: the shard scans fan out across
    /// the work-stealing pool (one task per shard, up to the default thread
    /// budget) and the per-shard top-k lists merge deterministically (tie by
    /// id) into the global top-k. Results are identical to a sequential
    /// shard loop — the scheduling only changes latency.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error (dimension mismatch etc.).
    pub fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
        let order = self.shard(0).index.merge_order();
        let workers = self.num_shards().min(parallel::default_threads());
        let per_shard = parallel::map(self.num_shards(), workers, |s| {
            self.shard(s).index.search(query, k)
        })?
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        Ok(self.gather(per_shard, k, order))
    }

    /// Scatter-gather batch search with an explicit worker-thread budget:
    /// the thread budget is split across the shards — up to `S` outer
    /// workers scan shards concurrently, each fanning its shard's batch
    /// through the engine's own batched path with the remaining budget.
    /// For JUNO and IVFPQ shards that path is the **cluster-major grouped
    /// executor**: each shard plans its local batch, routes it into a
    /// cluster→query-group schedule and streams every probed cluster's code
    /// blocks once per query group (with the per-worker batch arena reused
    /// across the whole shard batch). Per-query results then merge across
    /// shards under the usual deterministic order. `num_threads = 1`
    /// recovers the sequential shard-by-shard loop; results are identical —
    /// ids and distance bits — for every budget and execution strategy.
    ///
    /// # Errors
    ///
    /// Propagates the first per-shard error encountered.
    pub fn search_batch_threads(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        let order = self.shard(0).index.merge_order();
        let outer = num_threads.clamp(1, self.num_shards());
        let inner = (num_threads / outer).max(1);
        let mut shard_batches = parallel::map(self.num_shards(), outer, |s| {
            self.shard(s).index.search_batch_threads(queries, k, inner)
        })?
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        let mut out = Vec::with_capacity(queries.len());
        for qi in 0..queries.len() {
            let per_shard: Vec<SearchResult> = shard_batches
                .iter_mut()
                .map(|batch| std::mem::take(&mut batch[qi]))
                .collect();
            out.push(self.gather(per_shard, k, order));
        }
        Ok(out)
    }

    /// [`FleetReader::search_batch_threads`] with the default thread budget.
    ///
    /// # Errors
    ///
    /// Propagates the first per-shard error encountered.
    pub fn search_batch(&self, queries: &VectorSet, k: usize) -> Result<Vec<SearchResult>> {
        self.search_batch_threads(queries, k, parallel::default_threads())
    }

    /// Snapshot of every pinned shard's circuit-breaker state (shared with
    /// the fleet — breakers outlive any single reader). Always one entry per
    /// pinned shard: the tracker is part of the pinned version.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.version.health.breaker_states()
    }
}

impl<I: AnnIndex + 'static> FleetReader<I> {
    /// Deadline-aware degraded search of one query: scatter to every shard
    /// whose breaker admits it, gather whatever answers within `budget`, and
    /// merge that into a best-effort top-k. Never fails the whole query
    /// because one shard stalled, errored, or panicked — the loss shows up
    /// as `coverage < 1.0` and a non-`Ok` [`ShardStatus`] instead.
    ///
    /// With no faults, no open breakers, and the deadline met by every
    /// shard, the merged result is **bit-identical** (ids and distance bits)
    /// to [`FleetReader::search`].
    ///
    /// `I: 'static` because slow shards are *abandoned*, not cancelled: each
    /// scan runs on a detached worker holding its own `Arc` of the pinned
    /// shard state, so a straggler finishing after the deadline (even after
    /// this reader is dropped) writes into a disconnected channel and frees
    /// the state — never a use-after-free, never a blocked caller.
    ///
    /// # Errors
    ///
    /// Never fails per-shard; errors surface as [`ShardStatus::Failed`].
    /// Only query construction itself (e.g. a ragged query) can error.
    pub fn search_deadline(
        &self,
        query: &[f32],
        k: usize,
        budget: Duration,
    ) -> Result<DegradedResult> {
        let queries = VectorSet::from_rows(vec![query.to_vec()])?;
        let mut batch = self.search_batch_deadline(&queries, k, budget)?;
        let result = batch.results.pop().expect("one query in, one result out");
        Ok(DegradedResult {
            result,
            shards: batch.shards,
            coverage: batch.coverage,
        })
    }

    /// Batch variant of [`FleetReader::search_deadline`]: one deadline and
    /// one scatter for the whole batch (each responsive shard scans all
    /// queries; the per-shard statuses apply batch-wide).
    ///
    /// # Errors
    ///
    /// Never fails per-shard; see [`FleetReader::search_deadline`].
    pub fn search_batch_deadline(
        &self,
        queries: &VectorSet,
        k: usize,
        budget: Duration,
    ) -> Result<DegradedBatch> {
        let total = self.num_shards();
        let deadline = Instant::now() + budget;
        let order = self.shard(0).index.merge_order();
        let health = &self.version.health;
        let (tx, rx) = mpsc::channel::<(usize, Result<Vec<SearchResult>>)>();
        let mut statuses: Vec<ShardStatus> = Vec::with_capacity(total);
        // Breaker generation each shard's request was admitted under; every
        // outcome (including the straggler sweep) reports with its stamp so
        // the breaker can ignore outcomes that pre-date a state flip.
        let mut admit_gens: Vec<u64> = vec![0; total];
        let mut outstanding = 0usize;
        for (s, gen_slot) in admit_gens.iter_mut().enumerate() {
            let Some(admit_gen) = health.breaker(s).admit() else {
                statuses.push(ShardStatus::SkippedOpen);
                continue;
            };
            *gen_slot = admit_gen;
            // Provisional: overwritten when (if) the worker reports in.
            statuses.push(ShardStatus::TimedOut);
            outstanding += 1;
            let state = Arc::clone(&self.version.shards[s]);
            let queries = queries.clone();
            let fault = self.version.fault.clone();
            let retry = health.retry();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let out =
                    scan_shard_guarded(&state, s, &queries, k, deadline, fault.as_deref(), retry);
                // A send after the deadline hits a disconnected receiver;
                // the straggler's work is simply discarded.
                let _ = tx.send((s, out));
            });
        }
        drop(tx);

        let mut shard_batches: Vec<Option<Vec<SearchResult>>> = (0..total).map(|_| None).collect();
        while outstanding > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(wait) {
                Ok((s, Ok(batch))) => {
                    health.breaker(s).record_success(admit_gens[s]);
                    shard_batches[s] = Some(batch);
                    statuses[s] = ShardStatus::Ok;
                    outstanding -= 1;
                }
                Ok((s, Err(err))) => {
                    health.breaker(s).record_failure(admit_gens[s]);
                    statuses[s] = ShardStatus::Failed(err);
                    outstanding -= 1;
                }
                // Deadline reached (or, with zero spawns, channel closed):
                // whatever has not answered stays `TimedOut`.
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        // Stragglers (still provisional after the deadline) count against
        // their breakers just like explicit failures.
        for (s, status) in statuses.iter().enumerate() {
            if matches!(status, ShardStatus::TimedOut) {
                health.breaker(s).record_failure(admit_gens[s]);
            }
        }

        let ok = statuses.iter().filter(|s| s.is_ok()).count();
        let coverage = ok as f64 / total.max(1) as f64;
        let mut results = Vec::with_capacity(queries.len());
        for qi in 0..queries.len() {
            let per_shard: Vec<(usize, SearchResult)> = shard_batches
                .iter_mut()
                .enumerate()
                .filter_map(|(s, slot)| {
                    slot.as_mut()
                        .map(|batch| (s, std::mem::take(&mut batch[qi])))
                })
                .collect();
            results.push(self.gather_indexed(per_shard, k, order));
        }
        Ok(DegradedBatch {
            results,
            shards: statuses,
            coverage,
        })
    }
}

/// A sharded ANN index with snapshot-isolated concurrent reads and
/// clone-and-publish writes. See the [module docs](self) for the concurrency
/// and parity model.
#[derive(Debug)]
pub struct ShardedIndex<I: AnnIndex> {
    /// The published fleet version. The lock is held only to clone or swap
    /// the `Arc`; every swap additionally holds `writer` (or `&mut self`).
    version: RwLock<Arc<FleetVersion<I>>>,
    router: ShardRouter,
    /// Serialises writers (each builds its next version under this lock and
    /// publishes it with one swap). Readers never take it.
    writer: Mutex<()>,
}

impl<I: AnnIndex> ShardedIndex<I> {
    /// Assembles a fleet around validated shards with default health tuning.
    fn assemble(shards: Vec<ShardState<I>>, router: ShardRouter) -> Self {
        let health = Arc::new(HealthTracker::new(
            shards.len(),
            BreakerConfig::default(),
            RetryPolicy::default(),
        ));
        let version = FleetVersion {
            shards: shards.into_iter().map(Arc::new).collect(),
            health,
            fault: None,
            durability: None,
        };
        Self {
            version: RwLock::new(Arc::new(version)),
            router,
            writer: Mutex::new(()),
        }
    }

    /// The published version (O(1) pointer clone). A poisoned cell still
    /// holds a whole version — a swap is one assignment — so poisoning is
    /// ignored.
    fn current(&self) -> Arc<FleetVersion<I>> {
        Arc::clone(&self.version.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `next` in one pointer swap (caller holds the writer lock or
    /// `&mut self`).
    fn publish(&self, next: FleetVersion<I>) {
        *self.version.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
    }

    /// Publishes a copy of the current version edited by `edit` (caller
    /// holds the writer lock or owns the fleet).
    fn publish_edit(&self, edit: impl FnOnce(&mut FleetVersion<I>)) {
        let mut next = (*self.current()).clone();
        edit(&mut next);
        self.publish(next);
    }

    /// Takes the writer lock. A writer that panicked did so before its swap
    /// and published nothing, so a poisoned lock guards no broken state.
    fn lock_writer(&self) -> MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of shards in the fleet.
    pub fn num_shards(&self) -> usize {
        self.current().shards.len()
    }

    /// The id router partitioning ownership across shards.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Attaches (or with `None`, detaches) a chaos-testing fault plan by
    /// publishing a new version (so it waits for an in-flight writer). New
    /// readers pin the plan current at [`ShardedIndex::reader`] time; each
    /// writer uses the plan current when it takes the writer lock.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        let _writer = self.lock_writer();
        self.publish_edit(|next| next.fault = plan);
    }

    /// The currently attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.current().fault.clone()
    }

    fn durability_handle(&self) -> Option<Arc<Durability>> {
        self.current().durability.clone()
    }

    /// Whether a write-ahead log is attached (mutations are durable).
    pub fn wal_enabled(&self) -> bool {
        self.durability_handle().is_some()
    }

    /// The WAL's metrics registry (`wal.append_ns` / `wal.fsync_ns`
    /// histograms, byte/record/segment/checkpoint counters), when a WAL is
    /// attached. Share-able with a serving front-end's own registry via
    /// [`RegistrySnapshot::merge`](juno_common::metrics::RegistrySnapshot::merge).
    pub fn wal_registry(&self) -> Option<Arc<Registry>> {
        self.durability_handle().map(|d| Arc::clone(d.registry()))
    }

    /// Point-in-time snapshot of the `wal.*` metrics; empty when no WAL is
    /// attached.
    pub fn wal_metrics(&self) -> RegistrySnapshot {
        self.wal_registry()
            .map(|r| r.snapshot())
            .unwrap_or_default()
    }

    /// The LSN of the last appended WAL record (`None` without a WAL).
    pub fn wal_last_lsn(&self) -> Option<u64> {
        self.durability_handle().map(|d| d.wal.last_lsn())
    }

    /// The shared health tracker (per-shard breakers + retry policy) of the
    /// published version.
    pub fn health(&self) -> Arc<HealthTracker> {
        Arc::clone(&self.current().health)
    }

    /// Snapshot of every shard's circuit-breaker state.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.health().breaker_states()
    }

    /// Replaces the health tuning **in place**: every breaker restarts
    /// fresh (all-closed) with the new config. Works through `&self` on a
    /// live shared fleet (`Arc<ShardedIndex>`); existing readers share the
    /// same tracker, so they pick the new tuning up immediately.
    pub fn configure_health(&self, breaker: BreakerConfig, retry: RetryPolicy) {
        self.health().reconfigure(breaker, retry);
    }

    /// Pins a point-in-time view of the fleet (one pointer clone; never
    /// blocks behind an in-flight mutation). The view is exactly one
    /// published version: every shard, the breaker tracker and the fault
    /// plan come from the same swap, so a multi-shard write, rebuild or
    /// resize is seen wholly or not at all.
    pub fn reader(&self) -> FleetReader<I> {
        FleetReader {
            version: self.current(),
        }
    }

    /// The current published epoch of every shard.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.reader().epochs()
    }

    /// Builds a read-only fleet from pre-partitioned sub-indexes, each with
    /// a local→global id map (`map[local_id] = global_id`). This is the mode
    /// for engines without mutation support; searches translate ids before
    /// the merge. For boundary-tie parity with a monolith, each shard's rows
    /// should ascend in global id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `parts` is empty or oversized,
    /// the shards disagree on dim/metric, a map's length does not match its
    /// index, or global ids collide across shards.
    pub fn from_prebuilt(parts: Vec<(I, Vec<u64>)>, router: ShardRouter) -> Result<Self> {
        if parts.is_empty() {
            return Err(Error::invalid_config("a fleet needs at least one shard"));
        }
        if parts.len() > MAX_SHARDS {
            return Err(Error::invalid_config(format!(
                "at most {MAX_SHARDS} shards are supported"
            )));
        }
        let dim = parts[0].0.dim();
        let metric = parts[0].0.metric();
        let mut all_ids: Vec<u64> = Vec::new();
        for (s, (index, map)) in parts.iter().enumerate() {
            if index.dim() != dim || index.metric() != metric {
                return Err(Error::invalid_config(format!(
                    "shard {s} disagrees on dim/metric with shard 0"
                )));
            }
            if index.len() != map.len() {
                return Err(Error::invalid_config(format!(
                    "shard {s}: id map covers {} ids for {} indexed vectors",
                    map.len(),
                    index.len()
                )));
            }
            all_ids.extend_from_slice(map);
        }
        all_ids.sort_unstable();
        if all_ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::invalid_config(
                "global ids collide across prebuilt shards",
            ));
        }
        let shards = parts
            .into_iter()
            .map(|(index, map)| ShardState::new(index, 0, Some(Arc::new(map))))
            .collect();
        Ok(Self::assemble(shards, router))
    }
}

impl<I: AnnIndex + Clone> ShardedIndex<I> {
    /// Builds a global-id fleet by replicating a monolithic index and
    /// tombstoning, in each replica, every id the router assigns elsewhere
    /// (followed by a per-shard compaction, so each shard physically scans
    /// only its own points). All replicas share the monolith's trained
    /// state, which is what makes scatter-gather results bit-identical to
    /// the monolith.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a shard count of 0 or above
    /// [`MAX_SHARDS`], [`Error::Unsupported`] when `num_shards > 1` and the
    /// engine cannot tombstone, and propagates engine removal errors.
    pub fn from_monolith(monolith: I, num_shards: usize, router: ShardRouter) -> Result<Self> {
        if num_shards == 0 {
            return Err(Error::invalid_config("a fleet needs at least one shard"));
        }
        if num_shards > MAX_SHARDS {
            return Err(Error::invalid_config(format!(
                "at most {MAX_SHARDS} shards are supported"
            )));
        }
        if num_shards > 1 && !monolith.supports_mutation() {
            return Err(Error::unsupported(format!(
                "{} cannot tombstone, so it shards via ShardedIndex::from_prebuilt only",
                monolith.name()
            )));
        }
        let ids = monolith.ids();
        let mut shards = Vec::with_capacity(num_shards);
        let mut monolith = Some(monolith);
        for s in 0..num_shards {
            let mut replica = if s + 1 == num_shards {
                monolith.take().expect("monolith consumed once")
            } else {
                monolith.as_ref().expect("monolith live").clone()
            };
            if num_shards > 1 {
                for &id in &ids {
                    if router.route(id, num_shards) != s {
                        replica.remove(id)?;
                    }
                }
                replica.compact()?;
            }
            shards.push(ShardState::new(replica, 0, None));
        }
        Ok(Self::assemble(shards, router))
    }

    /// Restores a fleet from `SHRD` snapshot bytes, using `prototype` as
    /// the engine to decode per-shard state into (any instance of the right
    /// engine type). The bytes are copied once into an owned buffer; callers
    /// that own the bytes already should restore from a file
    /// ([`ShardedIndex::from_snapshot_path`]), which hands its buffer over.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed bytes; never panics.
    pub fn from_snapshot_bytes(prototype: I, bytes: &[u8]) -> Result<Self> {
        let mut fleet = Self::from_monolith(prototype, 1, ShardRouter::Hash { seed: 0 })?;
        fleet.restore_from_bytes(bytes)?;
        Ok(fleet)
    }

    /// Inserts one vector, routed to its owning shard. See
    /// [`ShardedIndex::insert_batch_shared`] for the publication semantics
    /// (a single-element batch).
    ///
    /// # Errors
    ///
    /// Propagates engine insertion errors; rejects mapped fleets with
    /// [`Error::Unsupported`].
    pub fn insert_shared(&self, vector: &[f32]) -> Result<u64> {
        let batch = VectorSet::from_rows(vec![vector.to_vec()])?;
        Ok(self.insert_batch_shared(&batch)?[0])
    }

    /// Inserts a batch of vectors through the clone-and-publish write path.
    ///
    /// Every replica receives every insert (keeping id allocation and the
    /// engines' distribution state — e.g. JUNO's threshold density maps — in
    /// lockstep with a monolith), and each vector is tombstoned on every
    /// non-owning replica **within the same publish**, so at any published
    /// version a point is live in at most one shard: readers can never
    /// observe a duplicate or a vanishing id mid-operation. Each shard is
    /// cloned once per batch, and the staged shards publish together in one
    /// version swap: a reader sees all of the batch or none of it.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (e.g. dimension mismatch) without leaving a
    /// partial batch behind: any failure — including an injected kill at a
    /// per-shard [`FaultOp::Publish`] point — happens before the swap, so
    /// nothing was published. A panic anywhere in the staging is caught and
    /// surfaced as [`Error::WorkerPanicked`] (the writer lock is released
    /// cleanly). Rejects mapped fleets with [`Error::Unsupported`].
    ///
    /// # Durability
    ///
    /// With a WAL attached ([`ShardedIndex::enable_wal`]), one Insert
    /// record per vector is appended — and fsync'd per the configured
    /// [`FsyncPolicy`](juno_common::wal::FsyncPolicy) — **before** the
    /// swap, so an acknowledged batch is always recoverable. If the batch
    /// then fails in-process, an Abort record covering the batch's LSNs is
    /// appended so replay skips them.
    pub fn insert_batch_shared(&self, vectors: &VectorSet) -> Result<Vec<u64>> {
        self.insert_batch_inner(vectors, true)
    }

    /// `durable: false` is the recovery replay path: identical mutation
    /// semantics, no re-logging of records that are already in the WAL.
    fn insert_batch_inner(&self, vectors: &VectorSet, durable: bool) -> Result<Vec<u64>> {
        let _writer = self.lock_writer();
        let current = self.current();
        current.ensure_global()?;
        if vectors.is_empty() {
            return Ok(Vec::new());
        }
        let durability = current.durability.as_ref().filter(|_| durable);
        let num_shards = current.shards.len();
        // LSN range appended for this batch, visible to the failure path
        // (which must compensate for records whose publish never happened).
        let wal_range = std::cell::Cell::new(None::<(u64, u64)>);
        let outcome = guarded("fleet insert writer", || {
            let mut ids: Vec<u64> = Vec::with_capacity(vectors.len());
            let mut staged = Vec::with_capacity(num_shards);
            for (s, pre) in current.shards.iter().enumerate() {
                current.inject(s, FaultOp::Insert)?;
                let mut next = ShardState::new(pre.index.clone(), pre.epoch + 1, None);
                for (vi, vector) in vectors.iter().enumerate() {
                    let id = next.index.insert(vector)?;
                    if s == 0 {
                        ids.push(id);
                    } else if ids[vi] != id {
                        return Err(Error::invalid_config(format!(
                            "shard {s} allocated id {id} where shard 0 allocated {}; \
                             replicas have diverged",
                            ids[vi]
                        )));
                    }
                    if self.router.route(id, num_shards) != s {
                        next.index.remove(id)?;
                    }
                }
                staged.push(Arc::new(next));
            }
            // Write-ahead: the whole batch is logged (and synced per
            // policy) before the swap. Staging above ran first so an
            // invalid batch is rejected without log garbage.
            if let Some(d) = durability {
                let mut first = 0u64;
                let mut last = 0u64;
                for vector in vectors.iter() {
                    let lsn = d.wal.append_unsynced(&WalRecord::Insert {
                        vector: vector.to_vec(),
                    })?;
                    if first == 0 {
                        first = lsn;
                    }
                    last = lsn;
                }
                wal_range.set(Some((first, last)));
                // The post-append/pre-sync kill point (fleet-level: shard 0
                // counters).
                current.inject(0, FaultOp::WalAppend)?;
                d.wal.maybe_sync()?;
            }
            // The post-sync/pre-publish kill points, then every staged
            // shard goes live in one swap.
            current.inject_each(num_shards, FaultOp::Publish)?;
            self.publish(current.with_shards(staged));
            Ok(ids)
        });
        if outcome.is_err() {
            Self::log_abort(durability.map(Arc::as_ref), wal_range.get());
        }
        outcome
    }

    /// After a failed write, records already in the WAL describe ops the
    /// live fleet never published: stamp an Abort record (always fsync'd)
    /// covering them so a later replay skips the range instead of
    /// resurrecting the failed mutation. Best-effort: if the WAL
    /// itself is failing, the original error already tells the caller the
    /// fleet is in trouble, and the un-acknowledged records are allowed to
    /// survive a crash under the durability contract.
    fn log_abort(durability: Option<&Durability>, range: Option<(u64, u64)>) {
        let (Some(d), Some((from_lsn, until_lsn))) = (durability, range) else {
            return;
        };
        let aborted = d
            .wal
            .append_unsynced(&WalRecord::Abort {
                from_lsn,
                until_lsn,
            })
            .and_then(|_| d.wal.sync());
        if let Err(err) = aborted {
            eprintln!(
                "juno-serve: failed to log abort of WAL records \
                 {from_lsn}..={until_lsn}: {err}"
            );
        }
    }

    /// Removes the point with the given id from its owning shard
    /// (clone-and-publish; the other shards already hold it as a tombstone).
    /// Returns `Ok(true)` when the id was live.
    ///
    /// # Errors
    ///
    /// Propagates engine removal errors; rejects mapped fleets with
    /// [`Error::Unsupported`]. With a WAL attached, a Remove record is
    /// appended (and synced per policy) before the publish; a removal of a
    /// dead id mutates nothing and logs nothing.
    pub fn remove_shared(&self, id: u64) -> Result<bool> {
        self.remove_inner(id, true)
    }

    fn remove_inner(&self, id: u64, durable: bool) -> Result<bool> {
        let _writer = self.lock_writer();
        let current = self.current();
        current.ensure_global()?;
        let durability = current.durability.as_ref().filter(|_| durable);
        let owner = self.router.route(id, current.shards.len());
        let wal_range = std::cell::Cell::new(None::<(u64, u64)>);
        let outcome = guarded("fleet remove writer", || {
            current.inject(owner, FaultOp::Insert)?;
            let pre = &current.shards[owner];
            let mut next = ShardState::new(pre.index.clone(), pre.epoch + 1, None);
            let removed = next.index.remove(id)?;
            if removed {
                if let Some(d) = durability {
                    let lsn = d.wal.append_unsynced(&WalRecord::Remove { id })?;
                    wal_range.set(Some((lsn, lsn)));
                    current.inject(0, FaultOp::WalAppend)?;
                    d.wal.maybe_sync()?;
                }
                current.inject(owner, FaultOp::Publish)?;
                let mut shards = current.shards.clone();
                shards[owner] = Arc::new(next);
                self.publish(current.with_shards(shards));
            }
            Ok(removed)
        });
        if outcome.is_err() {
            Self::log_abort(durability.map(Arc::as_ref), wal_range.get());
        }
        outcome
    }

    /// Compacts every shard that has seen a mutation since its last sweep,
    /// publishing each compacted shard in its own version swap (so at most
    /// one extra shard copy is alive at a time). Clean shards (including
    /// every shard of a read-only mapped fleet) are skipped without cloning,
    /// so a [`BackgroundCompactor`] on an idle fleet costs nothing and
    /// publishes no epochs. Readers keep serving the pre-compaction state
    /// until each swap; results are unchanged (compaction is bit-invisible
    /// per the engine contract).
    ///
    /// # Errors
    ///
    /// Propagates engine compaction errors, and surfaces a compaction panic
    /// as [`Error::WorkerPanicked`]; either way the failing shard keeps its
    /// pre-sweep state, stays dirty so the next sweep retries it, and the
    /// writer lock is released cleanly.
    ///
    /// With a WAL attached, one fleet-level Compact record is appended
    /// (and synced per policy) after a sweep that compacted at least one
    /// shard. Because compaction is bit-invisible, a crash that loses the
    /// record only costs the replayed fleet a redundant sweep — never
    /// parity.
    pub fn compact_all_shared(&self) -> Result<()> {
        self.compact_inner(true)
    }

    fn compact_inner(&self, durable: bool) -> Result<()> {
        let _writer = self.lock_writer();
        let mut any_compacted = false;
        for s in 0..self.num_shards() {
            let current = self.current();
            let pre = &current.shards[s];
            if !pre.dirty {
                continue;
            }
            let next = guarded(format_args!("shard {s} compaction"), || {
                current.inject(s, FaultOp::Compact)?;
                let mut next = (**pre).clone();
                next.epoch += 1;
                next.dirty = false;
                next.index.compact()?;
                Ok(next)
            })?;
            let mut shards = current.shards.clone();
            shards[s] = Arc::new(next);
            self.publish(current.with_shards(shards));
            any_compacted = true;
        }
        if any_compacted && durable {
            if let Some(d) = self.durability_handle() {
                d.wal.append_unsynced(&WalRecord::Compact)?;
                d.wal.maybe_sync()?;
            }
        }
        Ok(())
    }

    /// Serialises the whole fleet into the `SHRD` snapshot container:
    /// a manifest section plus one sub-snapshot section per shard. The
    /// encoded view is one pinned version, so the per-shard states are
    /// cross-consistent without taking the writer lock.
    ///
    /// # Errors
    ///
    /// Propagates engine snapshot errors ([`Error::Unsupported`] for
    /// engines without persistence).
    pub fn to_snapshot_bytes(&self) -> Result<Vec<u8>> {
        persist::encode_fleet(&self.reader(), self.router)
    }

    /// Replaces this fleet with the state decoded from `bytes` — the
    /// inverse of [`ShardedIndex::to_snapshot_bytes`]. Only `SHRD` fleet
    /// snapshots are accepted. The bytes are copied once into an owned
    /// buffer and decoded strictly: every section is checksummed. On any
    /// error the fleet is left untouched; epochs continue monotonically
    /// across a successful restore.
    ///
    /// A successful restore **detaches** any attached WAL: the restored
    /// state has no relationship to the log's op history, so continuing to
    /// append would make recovery replay nonsense. Re-attach with
    /// [`ShardedIndex::enable_wal`], which re-baselines via a fresh
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed bytes and propagates
    /// engine restore errors.
    pub fn restore_from_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.restore_from_map(&Mmap::from_bytes(bytes.to_vec()), None)
    }

    /// [`ShardedIndex::restore_from_bytes`] over an mmap'd snapshot file:
    /// shard engines restore **zero-copy** from their aligned regions of
    /// the map ([`juno_common::index::AnnIndex::restore_mapped`]), with hot
    /// sections faulted in lazily under `residency`. On any error the fleet
    /// is left untouched; a successful restore detaches any attached WAL,
    /// exactly like the byte-level restore.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed files and propagates
    /// engine restore errors.
    pub fn restore_from_mapped(
        &mut self,
        map: &Arc<Mmap>,
        residency: &juno_common::mmap::ResidencyConfig,
    ) -> Result<()> {
        self.restore_from_map(map, Some(residency))
    }

    /// Decodes the snapshot held by `map` ([`persist::decode_fleet`]; a
    /// copy restore without `residency`, a mapped one with it) and
    /// publishes it as the next version.
    fn restore_from_map(
        &mut self,
        map: &Arc<Mmap>,
        residency: Option<&juno_common::mmap::ResidencyConfig>,
    ) -> Result<()> {
        let current = self.current();
        // The decoder only clones the current shard 0 per shard after the
        // container has validated, so a malformed snapshot is rejected
        // without paying any engine clone.
        let decoded = persist::decode_fleet(
            map,
            &current.shards[0].index,
            current.next_base_epoch(),
            residency,
        )?;
        self.install_decoded(&current, decoded)
    }

    /// Publishes a fully validated decode as the next version of `current`.
    fn install_decoded(
        &mut self,
        current: &FleetVersion<I>,
        decoded: persist::DecodedFleet<I>,
    ) -> Result<()> {
        // Injection point: everything above is read-only, so a restore fault
        // (error or panic) leaves the live fleet untouched.
        guarded("fleet restore", || {
            current.inject_each(decoded.states.len(), FaultOp::Restore)
        })?;
        self.router = decoded.router;
        let num_shards = decoded.states.len();
        self.publish(FleetVersion {
            shards: decoded.states.into_iter().map(Arc::new).collect(),
            // A restore that changes the shard count rebuilds the breakers
            // (all closed) with the current tuning.
            health: current.health_for(num_shards),
            fault: current.fault.clone(),
            // The log no longer describes this fleet's history; see the doc
            // comment. (`recover_from_dir` re-attaches after its replay.)
            durability: None,
        });
        Ok(())
    }

    /// Restores a fleet from a crash-safe snapshot *file* written by
    /// [`AnnIndex::save_to_path`] — the path-level counterpart of
    /// [`ShardedIndex::from_snapshot_bytes`], including the fallback to the
    /// rotated `.prev` generation when the newest file is torn or corrupt.
    /// The file buffer is handed to the decoder without a copy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when no snapshot generation exists at `path` or
    /// one cannot be read, and [`Error::Corrupted`] when none of the
    /// generations validates.
    pub fn from_snapshot_path(prototype: I, path: &std::path::Path) -> Result<Self> {
        let mut fleet = Self::from_monolith(prototype, 1, ShardRouter::Hash { seed: 0 })?;
        fleet.load_from_path(path)?;
        Ok(fleet)
    }

    /// [`ShardedIndex::from_snapshot_path`] serving the snapshot **out of
    /// core**: the file is mmap'd and each shard engine restores zero-copy
    /// from its aligned region, faulting hot sections in lazily under
    /// `residency` (see [`ShardedIndex::restore_from_mapped`]). Falls back
    /// to the rotated `.prev` generation when the newest file is torn.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when no snapshot generation exists at `path` or
    /// one cannot be opened, and [`Error::Corrupted`] when none of the
    /// generations validates.
    pub fn from_snapshot_path_mapped(
        prototype: I,
        path: &std::path::Path,
        residency: &juno_common::mmap::ResidencyConfig,
    ) -> Result<Self> {
        let mut fleet = Self::from_monolith(prototype, 1, ShardRouter::Hash { seed: 0 })?;
        load_newest(path, Mmap::open, |map| {
            fleet.restore_from_map(&map, Some(residency))
        })?;
        Ok(fleet)
    }

    /// Attaches a write-ahead log rooted at `dir` and writes a **baseline
    /// checkpoint** of the current fleet state, so the directory is
    /// immediately recoverable. From this call on, every acknowledged
    /// mutation appends its record(s) — fsync'd per
    /// `config.wal.policy` — *before* its version swap.
    ///
    /// The directory may be fresh or hold a previous incarnation's files;
    /// either way the baseline checkpoint written here is the new recovery
    /// root (surviving older records are covered by it and pruned on the
    /// next [`ShardedIndex::checkpoint`]). To *continue* a previous
    /// incarnation instead, use [`ShardedIndex::recover_from_dir`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when a WAL is already attached, the fleet
    /// is mapped (read-only), or the options are invalid; [`Error::Io`] on
    /// filesystem failure; [`Error::Unsupported`] for engines without
    /// snapshot support (checkpoints need [`AnnIndex::snapshot`]).
    pub fn enable_wal(
        &self,
        dir: &std::path::Path,
        config: DurabilityConfig,
    ) -> Result<CheckpointReport> {
        let _writer = self.lock_writer();
        let current = self.current();
        current.ensure_global()?;
        if current.durability.is_some() {
            return Err(Error::invalid_config(
                "a WAL is already attached to this fleet",
            ));
        }
        let registry = Arc::new(Registry::new());
        let wal = Wal::open(dir, config.wal, registry)?;
        let durability = Arc::new(Durability {
            wal,
            dir: dir.to_path_buf(),
            keep_checkpoints: config.keep_checkpoints.max(1),
        });
        let report = self.checkpoint_locked(&durability)?;
        self.publish_edit(|next| next.durability = Some(durability));
        Ok(report)
    }

    /// Writes a checkpoint: publishes a fleet snapshot via
    /// [`juno_common::atomic_file`], stamps a Checkpoint record into a
    /// freshly rotated segment (always fsync'd), then prunes the sealed
    /// segments and old checkpoint generations the snapshot covers.
    /// Recovery cost after this call is O(snapshot) + O(ops since).
    ///
    /// A crash at *any* point inside this protocol is recoverable: the
    /// snapshot file publishes atomically, the Checkpoint record is just a
    /// marker (replay filters by the snapshot's covered LSN, so
    /// not-yet-pruned segments are harmless), and pruning is pure garbage
    /// collection.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when no WAL is attached; otherwise
    /// propagates snapshot/filesystem errors. A failed checkpoint never
    /// corrupts the previous recovery point.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let _writer = self.lock_writer();
        let durability = self.durability_handle().ok_or_else(|| {
            Error::invalid_config("no WAL attached; call enable_wal or recover_from_dir first")
        })?;
        self.checkpoint_locked(&durability)
    }

    /// The checkpoint protocol body over the published version; the caller
    /// holds the writer lock.
    fn checkpoint_locked(&self, d: &Durability) -> Result<CheckpointReport> {
        let reader = self.reader();
        guarded("fleet checkpoint", || {
            let bytes = persist::encode_fleet(&reader, self.router)?;
            let covered_lsn = d.wal.last_lsn();
            juno_common::atomic_file::write_atomic(
                &wal::checkpoint_path(&d.dir, covered_lsn),
                &bytes,
            )?;
            let registry = d.registry();
            registry.counter("wal.checkpoints").inc();
            registry
                .counter("wal.checkpoint_bytes")
                .add(bytes.len() as u64);
            // Mid-checkpoint kill point: the snapshot is durable but its
            // Checkpoint record is not yet logged.
            reader.version.inject(0, FaultOp::Checkpoint)?;
            d.wal.rotate()?;
            d.wal
                .append_unsynced(&WalRecord::Checkpoint { covered_lsn })?;
            d.wal.sync()?;
            // Mid-rotation kill point: the fresh segment (holding the
            // Checkpoint record) exists, the covered segments are not yet
            // pruned.
            reader.version.inject(0, FaultOp::Rotate)?;
            let pruned_segments = d.wal.prune_sealed_up_to(covered_lsn)?;
            let pruned_checkpoints = wal::prune_checkpoints(&d.dir, d.keep_checkpoints)?;
            Ok(CheckpointReport {
                covered_lsn,
                snapshot_bytes: bytes.len() as u64,
                pruned_segments,
                pruned_checkpoints,
            })
        })
    }

    /// Recovers a fleet from a durability directory: restores the **newest
    /// parseable checkpoint generation** (falling back through rotated and
    /// older generations when the newest is torn or corrupt), replays the
    /// WAL suffix after its covered LSN (skipping aborted ranges), and
    /// re-attaches the WAL so the recovered fleet keeps logging.
    ///
    /// The recovered fleet is **bit-identical** — ids, distance bits,
    /// id-allocator state — to a quiescent replay of the surviving op
    /// prefix, which under [`FsyncPolicy::Always`](juno_common::wal::FsyncPolicy)
    /// is every acknowledged mutation. Torn WAL tails are truncated, never
    /// fatal.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when `dir` holds no checkpoint at all (an empty or
    /// foreign directory is not silently treated as an empty fleet);
    /// [`Error::Corrupted`] when no checkpoint generation restores;
    /// propagates engine replay errors.
    pub fn recover_from_dir(
        prototype: I,
        dir: &std::path::Path,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        // Opening first truncates torn tails, so replay below reads only
        // intact records.
        let registry = Arc::new(Registry::new());
        let wal = Wal::open(dir, config.wal, registry)?;
        let torn_bytes = wal.registry().snapshot().counter("wal.torn_bytes");

        let checkpoints = wal::list_checkpoints(dir)?;
        if checkpoints.is_empty() {
            return Err(Error::Io(format!(
                "no checkpoint found in {} (not a durability directory?)",
                dir.display()
            )));
        }
        let mut restored = None;
        let mut checkpoints_tried = 0;
        let mut last_err = None;
        for (covered_lsn, path) in checkpoints.iter().rev() {
            checkpoints_tried += 1;
            // Continuity check: replay is only sound when the surviving log
            // continues exactly where this generation stops. A newer
            // checkpoint may already have pruned the segments between an
            // *older* generation and the present log — restoring that older
            // generation would skip the pruned ops, so it is rejected
            // rather than replayed across the gap. (An empty suffix is
            // fine: the snapshot alone is the state.)
            let suffix = wal.read_records_after(*covered_lsn)?;
            if let Some((first_lsn, _)) = suffix.first().filter(|(lsn, _)| *lsn != covered_lsn + 1)
            {
                last_err = Some(Error::corrupted(format!(
                    "{}: WAL resumes at LSN {first_lsn}, not {} — the records between \
                     were pruned by a newer checkpoint",
                    path.display(),
                    covered_lsn + 1,
                )));
                continue;
            }
            // Each generation has a live file and possibly a rotated
            // `.prev`; a read failure moves on to the next generation.
            let mut fleet =
                Self::from_monolith(prototype.clone(), 1, ShardRouter::Hash { seed: 0 })?;
            match fleet.load_from_path(path) {
                Ok(()) => {
                    restored = Some((fleet, *covered_lsn, suffix));
                    break;
                }
                Err(err) => last_err = Some(err),
            }
        }
        let Some((fleet, checkpoint_lsn, records)) = restored else {
            return Err(last_err.unwrap_or_else(|| {
                Error::corrupted(format!(
                    "no checkpoint generation in {} restored",
                    dir.display()
                ))
            }));
        };

        // Replay the suffix. Abort records mark ranges whose write failed
        // before publishing in the previous incarnation: collect them first so a
        // skipped insert still burns no id. Consecutive live inserts are
        // grouped into batches — batch staging applies them sequentially
        // per shard clone, so the result is state-identical to replaying
        // one by one, at a fraction of the clone cost.
        let aborted_ranges: Vec<(u64, u64)> = records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Abort {
                    from_lsn,
                    until_lsn,
                } => Some((*from_lsn, *until_lsn)),
                _ => None,
            })
            .collect();
        let is_aborted = |lsn: u64| aborted_ranges.iter().any(|&(a, b)| lsn >= a && lsn <= b);
        let mut replayed_ops = 0u64;
        let mut skipped_aborted = 0u64;
        let mut pending: Vec<Vec<f32>> = Vec::new();
        let flush = |fleet: &Self, pending: &mut Vec<Vec<f32>>| -> Result<()> {
            if pending.is_empty() {
                return Ok(());
            }
            let batch = VectorSet::from_rows(std::mem::take(pending))?;
            fleet.insert_batch_inner(&batch, false)?;
            Ok(())
        };
        for (lsn, record) in &records {
            match record {
                WalRecord::Insert { vector } => {
                    if is_aborted(*lsn) {
                        skipped_aborted += 1;
                    } else {
                        pending.push(vector.clone());
                        replayed_ops += 1;
                    }
                }
                WalRecord::Remove { id } => {
                    flush(&fleet, &mut pending)?;
                    if is_aborted(*lsn) {
                        skipped_aborted += 1;
                    } else {
                        fleet.remove_inner(*id, false)?;
                        replayed_ops += 1;
                    }
                }
                WalRecord::Compact => {
                    flush(&fleet, &mut pending)?;
                    if is_aborted(*lsn) {
                        skipped_aborted += 1;
                    } else {
                        // Bit-invisible; replaying keeps the physical
                        // layout (and the dirty flags) close to the
                        // pre-crash fleet.
                        fleet.compact_inner(false)?;
                        replayed_ops += 1;
                    }
                }
                // Markers for the pruning and rebuild-publish protocols; no
                // state to replay. A RebuildPublish whose checkpoint survived
                // is already reflected in the restored generation; one whose
                // checkpoint did not survive must be ignored so recovery
                // lands on the old lineage plus the replayed suffix.
                WalRecord::Checkpoint { .. }
                | WalRecord::Abort { .. }
                | WalRecord::RebuildPublish { .. } => {}
            }
        }
        flush(&fleet, &mut pending)?;

        let last_lsn = wal.last_lsn();
        let durability = Arc::new(Durability {
            wal,
            dir: dir.to_path_buf(),
            keep_checkpoints: config.keep_checkpoints.max(1),
        });
        fleet.publish_edit(|next| next.durability = Some(durability));
        Ok((
            fleet,
            RecoveryReport {
                checkpoint_lsn,
                last_lsn,
                replayed_ops,
                skipped_aborted,
                checkpoints_tried,
                torn_bytes,
            },
        ))
    }

    /// Drift signal for the fleet: shard 0's [`DriftReport`]. In global-id
    /// mode every replica receives every insert, so shard 0's EWMA and
    /// tail-fill statistics describe the whole fleet's distribution shift.
    /// `None` for engines without drift tracking.
    pub fn drift_report(&self) -> Option<DriftReport> {
        self.current().shards[0].index.drift_report()
    }

    /// Retrains the fleet's learned structure (codebooks, centroids,
    /// calibration) **under live traffic** and swaps every shard to the
    /// fresh lineage atomically per shard. The protocol:
    ///
    /// 1. **Pin** (brief writer lock): pin a fleet snapshot and the WAL
    ///    position `start_lsn`.
    /// 2. **Train** (no locks): build a fresh full index over the pinned
    ///    live set via [`AnnIndex::rebuild_for_live`], then derive one
    ///    shadow replica per shard with [`AnnIndex::with_live_ids`].
    ///    Writers keep acknowledging into the old lineage the whole time;
    ///    readers are never blocked.
    /// 3. **Replay** (writer lock): apply the WAL suffix after `start_lsn`
    ///    to every shadow — the mutations that landed during training —
    ///    skipping aborted ranges, with the same id-lockstep check as the
    ///    live insert path.
    /// 4. **Swap**: publish every shard's shadow (epoch bumped) in one
    ///    version swap. Pinned readers keep serving the old lineage until
    ///    they drop; an in-process failure or panic before the swap has
    ///    published nothing, so readers never observe a hybrid fleet.
    /// 5. **Persist** (WAL attached only): write a checkpoint of the new
    ///    lineage and stamp a fsync'd [`WalRecord::RebuildPublish`] marker.
    ///    A crash *before* the checkpoint's atomic publish recovers the old
    ///    lineage plus the full op suffix; a crash *after* recovers the new
    ///    lineage — both are exactly an acknowledged state, never a mix of
    ///    lineages.
    ///
    /// Without a WAL the whole protocol runs under the writer lock (there
    /// is no log to replay from, so writers pause during training; readers
    /// still never block).
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] for mapped fleets and engines without rebuild
    /// support; [`Error::InvalidConfig`] when the fleet is resized or its
    /// WAL detached while training ran (rerun the rebuild); otherwise
    /// propagates engine/WAL errors with the fleet still on the old lineage
    /// (nothing was published). A post-swap checkpoint failure is surfaced as an error with
    /// the fleet already (consistently) on the new lineage.
    pub fn rebuild_shared(&self) -> Result<RebuildReport> {
        // Phase 1: pin the training snapshot and the WAL position under the
        // writer lock, so the snapshot is exactly the state at `start_lsn`.
        let mut writer_guard = Some(self.lock_writer());
        let pinned = self.current();
        pinned.ensure_global()?;
        let first = &pinned.shards[0].index;
        if !first.supports_rebuild() {
            return Err(Error::unsupported(format!(
                "{} does not support lifecycle rebuilds",
                first.name()
            )));
        }
        let durability = pinned.durability.clone();
        let start_lsn = durability.as_ref().map(|d| d.wal.last_lsn());
        if durability.is_some() {
            // With a log to replay from, training can run unlocked: release
            // the writer lock so live mutations keep flowing.
            writer_guard = None;
        }
        let drift_before = first.drift_report();

        // Phase 2: train the fresh lineage over the pinned snapshot.
        let num_shards = pinned.shards.len();
        let router = self.router;
        let shadows = guarded("fleet rebuild trainer", || {
            pinned.inject(0, FaultOp::RebuildTrain)?;
            let mut all_live: Vec<u64> = Vec::new();
            for state in &pinned.shards {
                all_live.extend(state.index.ids());
            }
            all_live.sort_unstable();
            let fresh = first.rebuild_for_live(&all_live)?;
            let mut shadows = Vec::with_capacity(num_shards);
            for s in 0..num_shards {
                let owned: Vec<u64> = all_live
                    .iter()
                    .copied()
                    .filter(|&id| router.route(id, num_shards) == s)
                    .collect();
                shadows.push(fresh.with_live_ids(&owned)?);
            }
            Ok(shadows)
        })?;
        let trained_points = pinned.shards.iter().map(|s| s.index.len()).sum();

        // Phase 3: under the writer lock, replay what landed during
        // training and swap. Guard against the fleet changing shape (or
        // losing its WAL) while the lock was released.
        let _writer = writer_guard.take().unwrap_or_else(|| self.lock_writer());
        let current = self.current();
        if current.shards.len() != num_shards {
            return Err(Error::invalid_config(
                "fleet was resized while the rebuild trained; rerun the rebuild",
            ));
        }
        match (&durability, &current.durability) {
            (None, None) => {}
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => {}
            _ => {
                return Err(Error::invalid_config(
                    "the fleet's WAL changed while the rebuild trained; rerun the rebuild",
                ))
            }
        }
        let replayed_ops = guarded("fleet rebuild swap", || {
            let mut shadows = shadows;
            let mut replayed_ops = 0u64;
            if let (Some(d), Some(start)) = (&durability, start_lsn) {
                pinned.inject(0, FaultOp::RebuildReplay)?;
                let records = d.wal.read_records_after(start)?;
                let aborted: Vec<(u64, u64)> = records
                    .iter()
                    .filter_map(|(_, r)| match r {
                        WalRecord::Abort {
                            from_lsn,
                            until_lsn,
                        } => Some((*from_lsn, *until_lsn)),
                        _ => None,
                    })
                    .collect();
                let is_aborted = |lsn: u64| aborted.iter().any(|&(a, b)| lsn >= a && lsn <= b);
                for (lsn, record) in &records {
                    if is_aborted(*lsn) {
                        continue;
                    }
                    match record {
                        WalRecord::Insert { vector } => {
                            let mut expect = None;
                            for (s, shadow) in shadows.iter_mut().enumerate() {
                                let id = shadow.insert(vector)?;
                                match expect {
                                    None => expect = Some(id),
                                    Some(e) if e != id => {
                                        return Err(Error::invalid_config(format!(
                                            "rebuild replay: shadow {s} allocated id {id} \
                                             where shadow 0 allocated {e}; shadows diverged"
                                        )));
                                    }
                                    _ => {}
                                }
                                if router.route(id, num_shards) != s {
                                    shadow.remove(id)?;
                                }
                            }
                            replayed_ops += 1;
                        }
                        WalRecord::Remove { id } => {
                            // Owner removal; non-owners already hold the id
                            // as a tombstone, so their remove is a no-op.
                            for shadow in shadows.iter_mut() {
                                shadow.remove(*id)?;
                            }
                            replayed_ops += 1;
                        }
                        // Compaction is bit-invisible and the shadows are
                        // freshly compacted; markers carry no state.
                        WalRecord::Compact
                        | WalRecord::Checkpoint { .. }
                        | WalRecord::Abort { .. }
                        | WalRecord::RebuildPublish { .. } => {}
                    }
                }
            }
            // The per-shard swap kill points, then every shadow goes live
            // on a bumped epoch in one swap (replayed ops may have left
            // tails / tombstones, so the fresh states start dirty).
            pinned.inject_each(num_shards, FaultOp::RebuildSwap)?;
            let shards = shadows
                .into_iter()
                .zip(&current.shards)
                .map(|(shadow, pre)| Arc::new(ShardState::new(shadow, pre.epoch + 1, None)))
                .collect();
            self.publish(current.with_shards(shards));
            Ok(replayed_ops)
        })?;

        // Phase 4: make the new lineage the recovery root. A crash anywhere
        // before the checkpoint's atomic rename lands recovery on the old
        // lineage + full suffix replay; after it, on the new lineage.
        let checkpoint = match &durability {
            Some(d) => {
                let report = self.checkpoint_locked(d)?;
                d.wal.append_unsynced(&WalRecord::RebuildPublish {
                    covered_lsn: report.covered_lsn,
                })?;
                d.wal.sync()?;
                Some(report)
            }
            None => None,
        };
        let drift_after = self.drift_report();
        Ok(RebuildReport {
            trained_points,
            replayed_ops,
            pinned_lsn: start_lsn,
            drift_before,
            drift_after,
            checkpoint,
        })
    }

    /// Repartitions the fleet to `new_count` shards by **snapshot surgery**
    /// under live reads: every global-id replica retains the dense per-id
    /// assignment and code rows for *all* ids ever allocated (tombstones
    /// included), so shard 0's replica alone can derive, via
    /// [`AnnIndex::with_live_ids`], a replica owning any id subset — no
    /// retraining, no vector I/O. The new shards — and a breaker tracker
    /// sized for them — are built off to the side and published in **one
    /// version swap**: a reader pinning mid-resize sees the old or the new
    /// topology wholesale, always with a tracker of the matching size, and
    /// because every shard shares the same trained state and allocator, the
    /// resized fleet's search results stay bit-identical to the monolith's.
    ///
    /// With a WAL attached the resize is sealed with a checkpoint, making
    /// the new topology the recovery root; a crash before that checkpoint
    /// recovers the old topology with the same acknowledged data (topology
    /// is configuration — either generation replays the log correctly).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a count of 0, above [`MAX_SHARDS`], or
    /// equal to the current count; [`Error::Unsupported`] for mapped fleets
    /// and engines without rebuild support. On error before the swap the
    /// fleet is untouched; a post-swap checkpoint failure surfaces with the
    /// fleet already (consistently) on the new topology.
    pub fn resize_shards(&self, new_count: usize) -> Result<()> {
        let _writer = self.lock_writer();
        let current = self.current();
        current.ensure_global()?;
        if new_count == 0 {
            return Err(Error::invalid_config("a fleet needs at least one shard"));
        }
        if new_count > MAX_SHARDS {
            return Err(Error::invalid_config(format!(
                "at most {MAX_SHARDS} shards are supported"
            )));
        }
        if new_count == current.shards.len() {
            return Err(Error::invalid_config(format!(
                "fleet already has {new_count} shards"
            )));
        }
        let first = &current.shards[0].index;
        if !first.supports_rebuild() {
            return Err(Error::unsupported(format!(
                "{} does not support shard split/merge",
                first.name()
            )));
        }
        let router = self.router;
        // All new states publish past every live epoch, like a restore.
        let base_epoch = current.next_base_epoch();
        let mut all_live: Vec<u64> = Vec::new();
        for state in &current.shards {
            all_live.extend(state.index.ids());
        }
        all_live.sort_unstable();
        let shards = guarded("fleet resize", || {
            (0..new_count)
                .map(|s| {
                    // Counted on the NEW shard index.
                    current.inject(s, FaultOp::Split)?;
                    let owned: Vec<u64> = all_live
                        .iter()
                        .copied()
                        .filter(|&id| router.route(id, new_count) == s)
                        .collect();
                    let index = first.with_live_ids(&owned)?;
                    Ok(Arc::new(ShardState::new(index, base_epoch, None)))
                })
                .collect::<Result<Vec<_>>>()
        })?;
        self.publish(FleetVersion {
            shards,
            health: current.health_for(new_count),
            ..(*current).clone()
        });
        if let Some(d) = &current.durability {
            // Seal the new topology as the recovery root.
            self.checkpoint_locked(d)?;
        }
        Ok(())
    }

    /// Splits the fleet one shard wider (`S` → `S + 1`) under live traffic.
    /// Returns the new shard count. See [`ShardedIndex::resize_shards`].
    ///
    /// # Errors
    ///
    /// See [`ShardedIndex::resize_shards`].
    pub fn split_shard(&self) -> Result<usize> {
        let new_count = self.num_shards() + 1;
        self.resize_shards(new_count)?;
        Ok(new_count)
    }

    /// Merges the fleet one shard narrower (`S` → `S - 1`) under live
    /// traffic. Returns the new shard count. See
    /// [`ShardedIndex::resize_shards`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a single-shard fleet; see
    /// [`ShardedIndex::resize_shards`] for the rest.
    pub fn merge_shards(&self) -> Result<usize> {
        let current = self.num_shards();
        if current <= 1 {
            return Err(Error::invalid_config(
                "a single-shard fleet cannot merge further",
            ));
        }
        self.resize_shards(current - 1)?;
        Ok(current - 1)
    }
}

/// The outcome of [`ShardedIndex::rebuild_shared`].
#[derive(Debug, Clone)]
pub struct RebuildReport {
    /// Live vectors in the pinned snapshot the fresh lineage trained on.
    pub trained_points: usize,
    /// Mutations that landed during training and were replayed into the
    /// shadows before the swap (always 0 without a WAL — writers were
    /// paused).
    pub replayed_ops: u64,
    /// The WAL position the training snapshot was pinned at (`None`
    /// without a WAL).
    pub pinned_lsn: Option<u64>,
    /// Shard 0's drift report at pin time (the signal that typically
    /// triggered this rebuild).
    pub drift_before: Option<DriftReport>,
    /// Shard 0's drift report after the swap — re-anchored to the fresh
    /// lineage's training distribution.
    pub drift_after: Option<DriftReport>,
    /// The checkpoint that sealed the new lineage (`None` without a WAL).
    pub checkpoint: Option<CheckpointReport>,
}

impl<I: AnnIndex + Clone> AnnIndex for ShardedIndex<I> {
    fn metric(&self) -> juno_common::Metric {
        self.current().shards[0].index.metric()
    }

    fn dim(&self) -> usize {
        self.current().shards[0].index.dim()
    }

    fn len(&self) -> usize {
        self.reader().len()
    }

    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
        self.reader().search(query, k)
    }

    fn search_batch(&self, queries: &VectorSet, k: usize) -> Result<Vec<SearchResult>> {
        self.reader().search_batch(queries, k)
    }

    fn search_batch_threads(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        self.reader().search_batch_threads(queries, k, num_threads)
    }

    fn supports_mutation(&self) -> bool {
        let current = self.current();
        let first = &current.shards[0];
        first.id_map.is_none() && first.index.supports_mutation()
    }

    fn supports_snapshot(&self) -> bool {
        self.current().shards[0].index.supports_snapshot()
    }

    fn insert(&mut self, vector: &[f32]) -> Result<u64> {
        self.insert_shared(vector)
    }

    fn remove(&mut self, id: u64) -> Result<bool> {
        self.remove_shared(id)
    }

    fn compact(&mut self) -> Result<()> {
        self.compact_all_shared()
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        self.to_snapshot_bytes()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        self.restore_from_bytes(bytes)
    }

    fn load_from_path(&mut self, path: &std::path::Path) -> Result<()> {
        // The file buffer goes to the decoder by value: no second copy.
        load_newest(
            path,
            |p| std::fs::read(p),
            |bytes| self.restore_from_map(&Mmap::from_bytes(bytes), None),
        )
    }

    fn merge_order(&self) -> ScoreOrder {
        self.current().shards[0].index.merge_order()
    }

    fn ids(&self) -> Vec<u64> {
        let reader = self.reader();
        let mut ids: Vec<u64> = Vec::with_capacity(reader.len());
        for s in 0..reader.num_shards() {
            let state = reader.shard(s);
            match &state.id_map {
                Some(map) => ids.extend_from_slice(map),
                None => ids.extend(state.index.ids()),
            }
        }
        ids.sort_unstable();
        ids
    }

    fn name(&self) -> String {
        format!(
            "Sharded{}x[{}]",
            self.num_shards(),
            self.current().shards[0].index.name()
        )
    }
}

/// A background thread that periodically compacts every shard of a fleet
/// (clone-and-publish, so readers are never blocked). The thread stops and
/// joins when the guard is dropped.
///
/// Compaction failures do not kill the thread: each failure is counted
/// ([`BackgroundCompactor::errors`]), logged to stderr, and retried on the
/// next tick with a capped exponential backoff (up to 32× the interval), so
/// a persistently failing shard cannot turn the compactor into a hot loop —
/// and a shard that recovers is swept again at the normal cadence.
///
/// Shutdown is condvar-driven: dropping the guard notifies the sleeping
/// thread directly, so shutdown latency is one lock handoff (plus at most
/// one in-flight sweep), independent of the configured interval — a 10 s
/// cadence does not cost 10 s (or even 1 ms of slicing) to tear down.
#[derive(Debug)]
pub struct BackgroundCompactor {
    stop: Arc<(Mutex<bool>, Condvar)>,
    runs: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl BackgroundCompactor {
    /// Spawns the compaction thread, waking every `interval` (clamped to at
    /// least 100µs so a zero interval cannot busy-spin on the writer lock).
    pub fn spawn<I>(fleet: Arc<ShardedIndex<I>>, interval: Duration) -> Self
    where
        I: AnnIndex + Clone + 'static,
    {
        let interval = interval.max(Duration::from_micros(100));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let runs = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let (stop_pair, run_counter, error_counter) = (stop.clone(), runs.clone(), errors.clone());
        let handle = std::thread::spawn(move || {
            let (stop_flag, stop_signal) = &*stop_pair;
            let mut consecutive_failures: u32 = 0;
            loop {
                // After failures, back off exponentially (capped at 32x) so
                // a broken shard is retried, not hammered.
                let factor = 1u32 << consecutive_failures.min(5);
                let wait = interval.saturating_mul(factor);
                // Wait on the condvar so Drop wakes us immediately instead
                // of us polling a flag: shutdown latency is a lock handoff,
                // not a sleep slice. Deadline-based loop guards against
                // spurious wakeups without extending the cadence.
                let deadline = Instant::now() + wait;
                let mut stopped = stop_flag.lock().expect("compactor stop lock");
                loop {
                    if *stopped {
                        return;
                    }
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    let (guard, _timeout) = stop_signal
                        .wait_timeout(stopped, remaining)
                        .expect("compactor stop lock");
                    stopped = guard;
                }
                drop(stopped);
                match fleet.compact_all_shared() {
                    Ok(()) => {
                        consecutive_failures = 0;
                        run_counter.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(err) => {
                        consecutive_failures = consecutive_failures.saturating_add(1);
                        error_counter.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "[juno-serve] background compaction failed \
                             ({consecutive_failures} consecutive), backing off: {err}"
                        );
                    }
                }
            }
        });
        Self {
            stop,
            runs,
            errors,
            handle: Some(handle),
        }
    }

    /// Number of completed compaction sweeps so far.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Number of failed compaction sweeps so far (the thread survives them).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

impl Drop for BackgroundCompactor {
    fn drop(&mut self) {
        let (stop_flag, stop_signal) = &*self.stop;
        *stop_flag.lock().expect("compactor stop lock") = true;
        stop_signal.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// When a [`Rebuilder`] pulls the trigger on a background re-train.
///
/// A rebuild fires when the fleet has absorbed at least `min_inserts`
/// post-build inserts **and** either drift signal trips: the EWMA residual
/// ratio (inserts landing far from the trained centroids) or the structural
/// tail-fill ratio (clusters dominated by append-tail rows the trained
/// layout never saw). Both signals come from
/// [`ShardedIndex::drift_report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Trigger when `drift_ratio` (EWMA insert residual energy over the
    /// training baseline) reaches this. Default 2.0 — inserts land twice as
    /// far from their centroids as the training distribution did.
    pub drift_ratio_threshold: f64,
    /// Trigger when any cluster's tail-fill fraction reaches this.
    /// Default 0.5 — half the cluster's rows postdate the trained layout.
    pub tail_fill_threshold: f64,
    /// Suppress rebuilds until this many inserts were tracked since the
    /// last (re)build, so a handful of outliers cannot churn the fleet.
    /// Default 512.
    pub min_inserts: u64,
    /// How often the drift report is polled. Default 5 s.
    pub interval: Duration,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        Self {
            drift_ratio_threshold: 2.0,
            tail_fill_threshold: 0.5,
            min_inserts: 512,
            interval: Duration::from_secs(5),
        }
    }
}

impl RebuildPolicy {
    /// Whether `report` trips this policy.
    pub fn should_rebuild(&self, report: &DriftReport) -> bool {
        report.inserts_tracked >= self.min_inserts
            && (report.drift_ratio >= self.drift_ratio_threshold
                || report.max_tail_fill >= self.tail_fill_threshold)
    }
}

/// A background thread that watches the fleet's drift report and runs
/// [`ShardedIndex::rebuild_shared`] when a [`RebuildPolicy`] trips —
/// closing the self-healing loop: distribution shift degrades recall, the
/// drift signal crosses the policy threshold, and a fresh lineage trained
/// on the *current* distribution swaps in under live traffic.
///
/// Failures do not kill the thread: each one is counted, logged to stderr,
/// and retried with a capped exponential backoff (up to 32× the poll
/// interval), exactly like [`BackgroundCompactor`]. Shutdown is
/// condvar-driven via `Drop` — one lock handoff plus at most one in-flight
/// rebuild.
#[derive(Debug)]
pub struct Rebuilder {
    stop: Arc<(Mutex<bool>, Condvar)>,
    checks: Arc<AtomicU64>,
    rebuilds: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    registry: Arc<Registry>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Rebuilder {
    /// Spawns the watcher thread, polling every `policy.interval` (clamped
    /// to at least 100µs).
    pub fn spawn<I>(fleet: Arc<ShardedIndex<I>>, policy: RebuildPolicy) -> Self
    where
        I: AnnIndex + Clone + 'static,
    {
        let interval = policy.interval.max(Duration::from_micros(100));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let checks = Arc::new(AtomicU64::new(0));
        let rebuilds = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let registry = Arc::new(Registry::new());
        let (stop_pair, check_counter, rebuild_counter, error_counter, metrics) = (
            stop.clone(),
            checks.clone(),
            rebuilds.clone(),
            errors.clone(),
            registry.clone(),
        );
        let handle = std::thread::spawn(move || {
            let (stop_flag, stop_signal) = &*stop_pair;
            let mut consecutive_failures: u32 = 0;
            loop {
                let factor = 1u32 << consecutive_failures.min(5);
                let deadline = Instant::now() + interval.saturating_mul(factor);
                let mut stopped = stop_flag.lock().expect("rebuilder stop lock");
                loop {
                    if *stopped {
                        return;
                    }
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    let (guard, _timeout) = stop_signal
                        .wait_timeout(stopped, remaining)
                        .expect("rebuilder stop lock");
                    stopped = guard;
                }
                drop(stopped);
                check_counter.fetch_add(1, Ordering::Relaxed);
                let Some(report) = fleet.drift_report() else {
                    // Engine without drift tracking: nothing to watch, but
                    // keep the thread alive in case a restore changes that.
                    continue;
                };
                // Gauges hold integers; export the ratios in milli-units.
                metrics
                    .gauge("lifecycle.drift_ratio_milli")
                    .set((report.drift_ratio * 1000.0) as i64);
                metrics
                    .gauge("lifecycle.max_tail_fill_milli")
                    .set((report.max_tail_fill * 1000.0) as i64);
                metrics
                    .gauge("lifecycle.inserts_tracked")
                    .set(report.inserts_tracked.min(i64::MAX as u64) as i64);
                if !policy.should_rebuild(&report) {
                    consecutive_failures = 0;
                    continue;
                }
                match fleet.rebuild_shared() {
                    Ok(outcome) => {
                        consecutive_failures = 0;
                        rebuild_counter.fetch_add(1, Ordering::Relaxed);
                        metrics.counter("lifecycle.rebuilds").inc();
                        metrics
                            .counter("lifecycle.replayed_ops")
                            .add(outcome.replayed_ops);
                        metrics
                            .counter("lifecycle.trained_points")
                            .add(outcome.trained_points as u64);
                    }
                    Err(err) => {
                        consecutive_failures = consecutive_failures.saturating_add(1);
                        error_counter.fetch_add(1, Ordering::Relaxed);
                        metrics.counter("lifecycle.rebuild_errors").inc();
                        eprintln!(
                            "[juno-serve] background rebuild failed \
                             ({consecutive_failures} consecutive), backing off: {err}"
                        );
                    }
                }
            }
        });
        Self {
            stop,
            checks,
            rebuilds,
            errors,
            registry,
            handle: Some(handle),
        }
    }

    /// Number of drift checks performed so far.
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// Number of completed background rebuilds so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Number of failed rebuild attempts so far (the thread survives them).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot of the `lifecycle.*` metrics (drift gauges,
    /// rebuild/replay counters).
    pub fn metrics(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}

impl Drop for Rebuilder {
    fn drop(&mut self) {
        let (stop_flag, stop_signal) = &*self.stop;
        *stop_flag.lock().expect("rebuilder stop lock") = true;
        stop_signal.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
