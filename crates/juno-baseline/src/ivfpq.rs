//! The FAISS-style IVFPQ baseline with dense L2-LUT construction.
//!
//! This is the pipeline the paper profiles in Section 3 and competes against
//! in Section 6: filtering (stage A), dense per-cluster LUT construction
//! (stages B–C) and distance calculation over all candidate points (stage D).
//! Both L2 and inner-product metrics are supported; for MIPS the LUT holds
//! per-subspace inner products and the per-cluster centroid term is added
//! once per candidate, following the additive decomposition
//! `IP(q, c + r) = IP(q, c) + Σ_s IP(q_s, r_s)`.

use crate::sim::SimulationConfig;
use juno_common::error::{Error, Result};
use juno_common::group::GroupSchedule;
use juno_common::index::{AnnIndex, Neighbor, SearchResult, SearchStats};
use juno_common::kernel::{
    self, QuantizedLut, BLOCK_LANES, GROUP_CHUNK_WORK, GROUP_TILE, MIN_GROUP_QUERIES,
};
use juno_common::metric::{inner_product, Metric};
use juno_common::parallel;
use juno_common::topk::TopK;
use juno_common::vector::VectorSet;
use juno_core::persist::{get_ivf, get_metric, get_pq, put_ivf, put_metric, put_pq};
use juno_data::snapshot::{
    kind, SectionWriter, Snapshot, SnapshotWriter, CONTAINER_HEADER_LEN, SECTION_PREFIX_LEN,
};
use juno_quant::ivf::{IvfIndex, IvfTrainConfig};
use juno_quant::layout::{BlockCodes, GroupLane};
use juno_quant::mapped::{decode_codes_v3, encode_codes_v3};
use juno_quant::pq::{EncodedPoints, PqTrainConfig, ProductQuantizer};
use std::path::Path;
use std::sync::OnceLock;

/// The engine kind word identifying IVFPQ baseline snapshots.
pub const KIND_IVFPQ: u32 = kind(*b"IVPQ");

/// Build/search configuration of an [`IvfPqIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvfPqConfig {
    /// Number of coarse clusters (`C`).
    pub n_clusters: usize,
    /// Number of clusters scanned per query (`nprobs`).
    pub nprobs: usize,
    /// Number of PQ subspaces (`D/M`), e.g. 48 for DEEP.
    pub pq_subspaces: usize,
    /// Codebook entries per subspace (`E`), typically 256.
    pub pq_entries: usize,
    /// Metric.
    pub metric: Metric,
    /// Training seed.
    pub seed: u64,
}

impl Default for IvfPqConfig {
    fn default() -> Self {
        Self {
            n_clusters: 64,
            nprobs: 8,
            pq_subspaces: 16,
            pq_entries: 256,
            metric: Metric::L2,
            seed: 0xFA15,
        }
    }
}

/// One cluster's scan-ready view: the inverted-list ids in list order, the
/// matching point-major codes gathered contiguously, and the
/// block-interleaved view the fast-scan kernel consumes.
#[derive(Debug, Clone)]
struct ClusterScan {
    ids: Vec<u32>,
    codes: Vec<u8>,
    blocks: BlockCodes,
}

/// Lazily built per-cluster scan cache (invalidated by mutation/restore).
#[derive(Debug, Clone, Default)]
struct ScanCache {
    clusters: Vec<ClusterScan>,
}

impl ScanCache {
    fn build(ivf: &IvfIndex, codes: &EncodedPoints) -> Self {
        let subspaces = codes.num_subspaces();
        let clusters = (0..ivf.n_clusters())
            .map(|c| {
                let ids = ivf.list(c).expect("cluster id in range").to_vec();
                let mut flat = Vec::with_capacity(ids.len() * subspaces);
                for &pid in &ids {
                    flat.extend_from_slice(codes.code(pid as usize));
                }
                let blocks = BlockCodes::build(&flat, ids.len(), subspaces);
                ClusterScan {
                    ids,
                    codes: flat,
                    blocks,
                }
            })
            .collect();
        Self { clusters }
    }
}

/// The FAISS-style `IVFx,PQy` index.
#[derive(Debug, Clone)]
pub struct IvfPqIndex {
    ivf: IvfIndex,
    pq: ProductQuantizer,
    codes: EncodedPoints,
    /// Inner product of each point's assigned centroid with itself is not
    /// needed; for MIPS we store nothing extra because the centroid term is
    /// computed per query per cluster.
    metric: Metric,
    nprobs: usize,
    num_points: usize,
    sim: SimulationConfig,
    /// Per-cluster contiguous + block-interleaved code views for the
    /// fast-scan path, built on first search and dropped on mutation.
    scan_cache: OnceLock<ScanCache>,
    /// Whether the quantised prune pass runs (results are bit-identical
    /// either way; off exposes the dense reference scan).
    fastscan: bool,
}

impl IvfPqIndex {
    /// Trains the coarse quantiser + PQ codebooks and encodes every point.
    ///
    /// # Errors
    ///
    /// Propagates training/configuration errors from the IVF and PQ stages.
    pub fn build(points: &VectorSet, config: &IvfPqConfig) -> Result<Self> {
        if config.nprobs == 0 {
            return Err(Error::invalid_config("nprobs must be positive"));
        }
        let ivf = IvfIndex::train(
            points,
            &IvfTrainConfig {
                n_clusters: config.n_clusters,
                metric: config.metric,
                seed: config.seed,
                ..IvfTrainConfig::default()
            },
        )?;
        let residuals = ivf.point_residuals(points)?;
        let pq = ProductQuantizer::train(
            &residuals,
            &PqTrainConfig {
                num_subspaces: config.pq_subspaces,
                entries_per_subspace: config.pq_entries,
                seed: config.seed ^ 0xBEEF,
                ..PqTrainConfig::default()
            },
        )?;
        let codes = pq.encode(&residuals)?;
        Ok(Self {
            ivf,
            pq,
            codes,
            metric: config.metric,
            nprobs: config.nprobs,
            num_points: points.len(),
            sim: SimulationConfig::default(),
            scan_cache: OnceLock::new(),
            fastscan: true,
        })
    }

    /// Replaces the GPU simulation configuration (builder style).
    pub fn with_simulation(mut self, sim: SimulationConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Changes the number of probed clusters (search-time knob).
    pub fn set_nprobs(&mut self, nprobs: usize) {
        self.nprobs = nprobs.max(1);
    }

    /// Enables or disables the quantised fast-scan prune pass (final
    /// results are bit-identical either way).
    pub fn set_fastscan(&mut self, enabled: bool) {
        self.fastscan = enabled;
    }

    /// Whether the fast-scan prune pass is active.
    pub fn fastscan_enabled(&self) -> bool {
        self.fastscan
    }

    /// The number of probed clusters.
    pub fn nprobs(&self) -> usize {
        self.nprobs
    }

    /// Borrow of the coarse quantiser.
    pub fn ivf(&self) -> &IvfIndex {
        &self.ivf
    }

    /// Borrow of the trained product quantiser.
    pub fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// Borrow of the encoded points.
    pub fn codes(&self) -> &EncodedPoints {
        &self.codes
    }

    /// Inserts one vector: coarse-assigns it with the k-means rule, encodes
    /// its residual with the existing codebooks and appends it to the
    /// cluster's inverted list. Returns the new id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] for a wrong dimension; validation
    /// happens before any state is touched.
    pub fn insert(&mut self, vector: &[f32]) -> Result<u64> {
        if vector.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: vector.len(),
            });
        }
        let cluster = self.ivf.assign(vector)?;
        let residual = self.ivf.query_residual(vector, cluster)?;
        let code = self.pq.encode_one(&residual)?;
        let id = self.ivf.push_assignment(cluster)?;
        self.codes.push(&code)?;
        self.num_points += 1;
        self.scan_cache = OnceLock::new();
        Ok(id as u64)
    }

    /// Removes the point with the given id by pruning it from its cluster's
    /// inverted list (the dataset-order code row is retained — ids are
    /// positions and never renumbered). Returns `Ok(true)` when the id was
    /// indexed and live.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for trait conformity.
    pub fn remove(&mut self, id: u64) -> Result<bool> {
        let Ok(id32) = u32::try_from(id) else {
            return Ok(false);
        };
        let removed = self.ivf.remove_from_list(id32);
        if removed {
            self.num_points -= 1;
            self.scan_cache = OnceLock::new();
        }
        Ok(removed)
    }

    /// Serialises the index into snapshot bytes (kind [`KIND_IVFPQ`]).
    ///
    /// `CODE` uses the v3 code layout, whose alignment padding depends on
    /// the payload's absolute file offset, so the running offset is tracked
    /// section by section as the JUNO writer does.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new(KIND_IVFPQ);
        let mut abs = CONTAINER_HEADER_LEN;
        let mut conf = SectionWriter::new();
        put_metric(&mut conf, self.metric);
        conf.put_u64(self.nprobs as u64);
        conf.put_u64(self.num_points as u64);
        abs += SECTION_PREFIX_LEN + conf.len();
        writer.add_section(*b"CONF", conf);
        let mut ivfc = SectionWriter::new();
        put_ivf(&mut ivfc, &self.ivf);
        abs += SECTION_PREFIX_LEN + ivfc.len();
        writer.add_section(*b"IVFC", ivfc);
        let mut pqcb = SectionWriter::new();
        put_pq(&mut pqcb, &self.pq);
        abs += SECTION_PREFIX_LEN + pqcb.len();
        writer.add_section(*b"PQCB", pqcb);
        let mut code = SectionWriter::new();
        code.put_raw(&encode_codes_v3(&self.codes, abs + SECTION_PREFIX_LEN));
        writer.add_section(*b"CODE", code);
        writer.finish()
    }

    /// Rebuilds an index from snapshot bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed or mismatched snapshots.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self> {
        let snap = Snapshot::parse(bytes)?;
        if snap.kind() != KIND_IVFPQ {
            return Err(Error::corrupted(
                "snapshot is not an IVFPQ baseline snapshot",
            ));
        }
        let mut r = snap.section(*b"CONF")?;
        let metric = get_metric(&mut r)?;
        let nprobs = r.get_usize()?;
        let num_points = r.get_usize()?;
        r.expect_end()?;
        let mut r = snap.section(*b"IVFC")?;
        let ivf = get_ivf(&mut r)?;
        r.expect_end()?;
        let mut r = snap.section(*b"PQCB")?;
        let pq = get_pq(&mut r)?;
        r.expect_end()?;
        let codes = decode_codes_v3(snap.section(*b"CODE")?.take_rest())?;
        if nprobs == 0
            || ivf.labels().len() != codes.len()
            || pq.num_subspaces() != codes.num_subspaces()
            || ivf.dim() != pq.dim()
            || num_points > ivf.labels().len()
            // Every stored code must address a live codebook entry; both
            // the dense-LUT lookup and the fast-scan kernel index rows
            // without per-lookup bounds checks.
            || codes
                .as_flat()
                .iter()
                .any(|&c| (c as usize) >= pq.entries_per_subspace())
        {
            return Err(Error::corrupted(
                "IVFPQ snapshot sections are mutually inconsistent",
            ));
        }
        Ok(Self {
            ivf,
            pq,
            codes,
            metric,
            nprobs,
            num_points,
            sim: SimulationConfig::default(),
            scan_cache: OnceLock::new(),
            fastscan: true,
        })
    }

    /// Writes the snapshot to a file **atomically** (temp file + fsync +
    /// rename, rotating the previous snapshot to a `.prev` generation), so a
    /// crash mid-save can never leave a torn snapshot as the only copy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the file cannot be written.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<()> {
        juno_common::atomic_file::write_atomic(path.as_ref(), &self.to_snapshot_bytes())
    }

    /// Loads an index from a snapshot file, falling back to the `.prev`
    /// generation when the newest file is torn.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and the decoding failure of the newest
    /// readable candidate.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self> {
        juno_common::atomic_file::load_newest(
            path.as_ref(),
            |p| std::fs::read(p),
            |bytes| Self::from_snapshot_bytes(&bytes),
        )
    }

    /// Builds the per-cluster LUT of a query for one selected cluster into a
    /// flat `subspaces × E` buffer (resized in place, allocation reused).
    ///
    /// For L2 the LUT rows are squared distances between the query *residual*
    /// projection and the codebook entries; for MIPS they are inner products
    /// between the query projection and the entries.
    fn cluster_flat_lut(&self, query: &[f32], cluster: usize, out: &mut Vec<f32>) -> Result<()> {
        match self.metric {
            Metric::L2 => {
                let residual = self.ivf.query_residual(query, cluster)?;
                self.pq.dense_lut_into(&residual, out)
            }
            Metric::InnerProduct => {
                let sub_dim = self.pq.sub_dim();
                let entries = self.pq.entries_per_subspace();
                out.clear();
                out.resize(self.pq.num_subspaces() * entries, 0.0);
                for (s, cb) in self.pq.codebooks().iter().enumerate() {
                    let proj = &query[s * sub_dim..(s + 1) * sub_dim];
                    let row = &mut out[s * entries..(s + 1) * entries];
                    for (o, e) in row.iter_mut().zip(cb.entries().iter()) {
                        *o = inner_product(proj, e);
                    }
                }
                Ok(())
            }
        }
    }

    /// Quantises a flat cluster LUT into the prune LUT: L2 takes the values
    /// as-is ("lower is better"), MIPS negates them and folds the negated
    /// centroid term into the constant — the same score space as the JUNO
    /// engine's prune pass.
    fn build_cluster_qlut(&self, flat: &[f32], centroid_term: f32, qlut: &mut QuantizedLut) {
        let subspaces = self.pq.num_subspaces();
        let entries = self.pq.entries_per_subspace();
        match self.metric {
            Metric::L2 => qlut.build(flat, subspaces, entries, 0.0),
            Metric::InnerProduct => {
                qlut.build_selective(flat, subspaces, entries, -centroid_term, 0.0, true);
            }
        }
    }

    /// Scans one probed cluster for one query — build the flat LUT, run the
    /// two-phase prune scan (when the cache and a prune bar are available)
    /// or the exact scan, and push candidates into `topk`. The per-cluster
    /// unit the query-major [`AnnIndex::search`] drives; the grouped batch
    /// executor runs the same arithmetic cluster-major.
    #[allow(clippy::too_many_arguments)]
    fn scan_cluster_single(
        &self,
        query: &[f32],
        cluster: usize,
        scan: Option<&ClusterScan>,
        flat: &mut Vec<f32>,
        qlut: &mut QuantizedLut,
        lane_sums: &mut [u16; BLOCK_LANES],
        topk: &mut TopK,
        ctr: &mut PqCounters,
    ) -> Result<()> {
        let subspaces = self.pq.num_subspaces();
        let entries = self.pq.entries_per_subspace();
        self.cluster_flat_lut(query, cluster, flat)?;
        ctr.lut_builds += 1;
        // For MIPS the centroid contribution is constant per cluster.
        let centroid_term = match self.metric {
            Metric::L2 => 0.0,
            Metric::InnerProduct => inner_product(query, self.ivf.centroid(cluster)?),
        };
        let list_len = match scan {
            Some(scan) => scan.ids.len(),
            None => self.ivf.list(cluster)?.len(),
        };
        // Every list record is streamed: the invariant candidate count.
        ctr.streamed += list_len;
        // The prune pass needs a worst score to prune against and a
        // cluster large enough to amortise the O(subspaces × E)
        // quantisation — the same gating as the JUNO engine.
        let worst0 = topk.worst_score();
        let prune = scan.is_some() && worst0.is_some() && list_len >= kernel::MIN_PRUNE_POINTS;
        let flat_ref: &[f32] = flat;
        if prune {
            let scan = scan.expect("prune implies cache");
            self.build_cluster_qlut(flat_ref, centroid_term, qlut);
            if qlut.cluster_bound() >= worst0.expect("prune requires worst") as f64 {
                ctr.pruned_clusters += 1;
                ctr.pruned_points += list_len;
                return Ok(());
            }
            let ctr_ref = &mut *ctr;
            let topk_ref = &mut *topk;
            let (pp, pb) = scan.blocks.prune_scan(qlut, lane_sums, worst0, |i| {
                let code = &scan.codes[i * subspaces..(i + 1) * subspaces];
                let raw =
                    centroid_term + ProductQuantizer::adc_distance_flat(flat_ref, entries, code);
                topk_ref.push(scan.ids[i] as u64, raw);
                ctr_ref.exact += 1;
                topk_ref.worst_score()
            });
            ctr.pruned_points += pp;
            ctr.pruned_blocks += pb;
            // The exact re-rank reused the flat LUT built for the prune pass.
            ctr.lut_reuses += 1;
        } else if let Some(scan) = scan {
            // Cache built but nothing prunable yet: exact scan over the
            // cache's contiguous codes (same order as the list walk).
            for (i, &pid) in scan.ids.iter().enumerate() {
                let code = &scan.codes[i * subspaces..(i + 1) * subspaces];
                let raw =
                    centroid_term + ProductQuantizer::adc_distance_flat(flat_ref, entries, code);
                topk.push(pid as u64, raw);
                ctr.exact += 1;
            }
        } else {
            for &pid in self.ivf.list(cluster)? {
                let code = self.codes.code(pid as usize);
                let raw =
                    centroid_term + ProductQuantizer::adc_distance_flat(flat_ref, entries, code);
                topk.push(pid as u64, raw);
                ctr.exact += 1;
            }
        }
        Ok(())
    }

    /// Assembles the final [`SearchResult`] from a query's filter output and
    /// scan counters — one shared assembly for the query-major and grouped
    /// executors, so stats and simulated times are derived identically.
    fn finish_result(
        &self,
        filter_clusters: usize,
        filter_distances: usize,
        neighbors: Vec<Neighbor>,
        ctr: &PqCounters,
    ) -> SearchResult {
        let subspaces = self.pq.num_subspaces();
        let entries = self.pq.entries_per_subspace();
        // `streamed` counts every considered record (incl. bound-settled
        // ones) — invariant to pruning order and execution strategy;
        // `accumulations` models the exact ADC work actually performed.
        let accumulations = ctr.exact * subspaces;
        let candidates = ctr.streamed;
        let lut_distances = filter_clusters * entries * subspaces;
        let mut stats = SearchStats {
            filter_distances,
            lut_distances,
            candidates,
            accumulations,
            pruned_points: ctr.pruned_points,
            pruned_blocks: ctr.pruned_blocks,
            pruned_clusters: ctr.pruned_clusters,
            lut_builds: ctr.lut_builds,
            lut_reuses: ctr.lut_reuses,
            ..SearchStats::default()
        };
        let simulated_us = self.sim.fill_ivfpq_times(
            &mut stats,
            self.ivf.n_clusters(),
            self.dim(),
            lut_distances,
            self.pq.sub_dim(),
            candidates,
            subspaces,
        );
        SearchResult {
            neighbors,
            simulated_us,
            stats,
        }
    }
}

/// Work counters of one IVFPQ scan.
#[derive(Debug, Clone, Copy, Default)]
struct PqCounters {
    /// List records streamed (the invariant `candidates` count).
    streamed: usize,
    /// Candidates exactly re-ranked through the flat ADC sum.
    exact: usize,
    pruned_points: usize,
    pruned_blocks: usize,
    pruned_clusters: usize,
    lut_builds: usize,
    lut_reuses: usize,
}

impl PqCounters {
    fn merge(&mut self, other: &PqCounters) {
        self.streamed += other.streamed;
        self.exact += other.exact;
        self.pruned_points += other.pruned_points;
        self.pruned_blocks += other.pruned_blocks;
        self.pruned_clusters += other.pruned_clusters;
        self.lut_builds += other.lut_builds;
        self.lut_reuses += other.lut_reuses;
    }
}

/// One tile slot's per-(query, cluster) constants during a grouped visit.
#[derive(Debug, Clone, Copy, Default)]
struct PqTileMeta {
    query: u32,
    centroid_term: f32,
    /// The query's seed-pass bound, combined with the chunk-local worst via
    /// [`kernel::tighter_worst`] for pruning.
    seed: Option<f32>,
    prune: bool,
    done: bool,
}

/// Per-query accumulation slot of the grouped scan's batch arena.
#[derive(Debug)]
struct PqQuerySlot {
    topk: TopK,
    ctr: PqCounters,
    touched: bool,
}

/// Reusable per-worker state of the IVFPQ grouped batch executor: a
/// [`GROUP_TILE`]-slot tile of flat LUTs + quantised prune LUTs, and one
/// per-query slot per batch query. Allocated once per worker; steady-state
/// batches reuse it without per-query allocation.
///
/// NOTE: this arena and the plan → seed → schedule → grouped-scan → gather
/// flow below deliberately mirror the JUNO engine's executor
/// (`GroupScratch` / `search_batch_grouped` in `juno-core/src/engine.rs`) —
/// the two differ in what a "LUT" is (dense flat rows here vs selective
/// decode + thresholds there, plus tails/tombstones/hit-count modes), which
/// is why only the block driver (`BlockCodes::prune_scan_group`), the
/// schedule (`juno_common::group`) and the bound combinator
/// (`kernel::tighter_worst`) are shared. A semantic change to the
/// touch/reset, seeding or partial-merge contract in either executor MUST
/// be mirrored in the other; `tests/group_parity.rs` covers both.
#[derive(Debug)]
struct PqGroupScratch {
    tile_luts: Vec<Vec<f32>>,
    tile_qluts: Vec<QuantizedLut>,
    tile_meta: Vec<PqTileMeta>,
    slots: Vec<PqQuerySlot>,
    touched: Vec<u32>,
}

impl PqGroupScratch {
    fn begin_chunk(&mut self, num_queries: usize, k: usize, metric: Metric) {
        if self.slots.len() < num_queries {
            self.slots.resize_with(num_queries, || PqQuerySlot {
                topk: TopK::new(k, metric),
                ctr: PqCounters::default(),
                touched: false,
            });
        }
        for i in 0..self.touched.len() {
            self.slots[self.touched[i] as usize].touched = false;
        }
        self.touched.clear();
    }

    fn touch(&mut self, query: u32, k: usize, metric: Metric) {
        let slot = &mut self.slots[query as usize];
        if !slot.touched {
            slot.touched = true;
            slot.topk.reset(k, metric);
            slot.ctr = PqCounters::default();
            self.touched.push(query);
        }
    }
}

/// A query's seed-pass output: drained top-k entries, the prune bound (the
/// k-th best score, when the top-k filled) and the counters observed.
type PqSeed = (Vec<(u64, f32)>, Option<f32>, PqCounters);

/// One chunk's contribution to one query of a grouped IVFPQ batch.
struct PqPartial {
    query: u32,
    top: Vec<(u64, f32)>,
    ctr: PqCounters,
}

impl IvfPqIndex {
    fn make_group_scratch(&self) -> PqGroupScratch {
        PqGroupScratch {
            tile_luts: (0..GROUP_TILE).map(|_| Vec::new()).collect(),
            tile_qluts: (0..GROUP_TILE).map(|_| QuantizedLut::new()).collect(),
            tile_meta: vec![PqTileMeta::default(); GROUP_TILE],
            slots: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Scans one cluster-group chunk in cluster storage order, tiles of
    /// [`GROUP_TILE`] queries at a time, and returns the per-query partials.
    fn scan_group_chunk(
        &self,
        queries: &VectorSet,
        k: usize,
        sched: &GroupSchedule,
        chunk: usize,
        seed_bounds: &[Option<f32>],
        scratch: &mut PqGroupScratch,
    ) -> Vec<PqPartial> {
        let subspaces = self.pq.num_subspaces();
        let entries = self.pq.entries_per_subspace();
        let metric = self.metric;
        scratch.begin_chunk(queries.len(), k, metric);
        let cache = if self.fastscan {
            Some(
                self.scan_cache
                    .get_or_init(|| ScanCache::build(&self.ivf, &self.codes)),
            )
        } else {
            None
        };

        for (cluster, group) in sched.chunk(chunk) {
            let scan = cache.map(|cache| &cache.clusters[cluster]);
            let list_len = match scan {
                Some(scan) => scan.ids.len(),
                None => self
                    .ivf
                    .list(cluster)
                    .expect("cluster comes from the filter stage")
                    .len(),
            };
            let centroid = match metric {
                Metric::L2 => &[][..],
                Metric::InnerProduct => self
                    .ivf
                    .centroid(cluster)
                    .expect("cluster comes from the filter stage"),
            };

            for tile_entries in group.chunks(GROUP_TILE) {
                // Phase A: build each tile query's flat LUT (+ prune LUT)
                // once for the whole cluster visit.
                for (ti, &(q, _slot)) in tile_entries.iter().enumerate() {
                    scratch.touch(q, k, metric);
                    let qi = q as usize;
                    let query = queries.row(qi);
                    self.cluster_flat_lut(query, cluster, &mut scratch.tile_luts[ti])
                        .expect("batch dimensions validated up front");
                    let seed = seed_bounds.get(qi).copied().flatten();
                    let worst0 = {
                        let qs = &mut scratch.slots[qi];
                        qs.ctr.streamed += list_len;
                        qs.ctr.lut_builds += 1;
                        kernel::tighter_worst(qs.topk.worst_score(), seed)
                    };
                    let centroid_term = match metric {
                        Metric::L2 => 0.0,
                        Metric::InnerProduct => inner_product(query, centroid),
                    };
                    let prune =
                        scan.is_some() && worst0.is_some() && list_len >= kernel::MIN_PRUNE_POINTS;
                    let mut done = false;
                    if prune {
                        self.build_cluster_qlut(
                            &scratch.tile_luts[ti],
                            centroid_term,
                            &mut scratch.tile_qluts[ti],
                        );
                        done = scratch.tile_qluts[ti].cluster_bound()
                            >= worst0.expect("prune requires worst") as f64;
                        if done {
                            let ctr = &mut scratch.slots[qi].ctr;
                            ctr.pruned_clusters += 1;
                            ctr.pruned_points += list_len;
                        }
                    }
                    scratch.tile_meta[ti] = PqTileMeta {
                        query: q,
                        centroid_term,
                        seed,
                        prune,
                        done,
                    };
                }
                let tile_len = tile_entries.len();
                let PqGroupScratch {
                    tile_luts,
                    tile_qluts,
                    tile_meta,
                    slots,
                    ..
                } = scratch;
                let tile_meta = &tile_meta[..tile_len];

                // Phase B: the multi-query prune pass — the tile's quantised
                // LUTs held against each block, survivors re-ranked exactly
                // through the same flat ADC sum as the query-major path.
                let mut lane_map = [0usize; GROUP_TILE];
                let mut lanes_n = 0usize;
                for (ti, meta) in tile_meta.iter().enumerate() {
                    if meta.prune && !meta.done {
                        lane_map[lanes_n] = ti;
                        lanes_n += 1;
                    }
                }
                if lanes_n > 0 {
                    let scan = scan.expect("prune implies cache");
                    let mut lanes = [GroupLane::new(&tile_qluts[lane_map[0]], None); GROUP_TILE];
                    for (li, &ti) in lane_map.iter().enumerate().take(lanes_n) {
                        let meta = tile_meta[ti];
                        lanes[li] = GroupLane::new(
                            &tile_qluts[ti],
                            kernel::tighter_worst(
                                slots[meta.query as usize].topk.worst_score(),
                                meta.seed,
                            ),
                        );
                    }
                    scan.blocks
                        .prune_scan_group(&mut lanes[..lanes_n], |li, i| {
                            let ti = lane_map[li];
                            let meta = tile_meta[ti];
                            let qs = &mut slots[meta.query as usize];
                            let code = &scan.codes[i * subspaces..(i + 1) * subspaces];
                            let raw = meta.centroid_term
                                + ProductQuantizer::adc_distance_flat(
                                    &tile_luts[ti],
                                    entries,
                                    code,
                                );
                            qs.topk.push(scan.ids[i] as u64, raw);
                            qs.ctr.exact += 1;
                            kernel::tighter_worst(qs.topk.worst_score(), meta.seed)
                        });
                    for (li, &ti) in lane_map.iter().enumerate().take(lanes_n) {
                        let ctr = &mut slots[tile_meta[ti].query as usize].ctr;
                        ctr.pruned_points += lanes[li].pruned_points;
                        ctr.pruned_blocks += lanes[li].pruned_blocks;
                        ctr.lut_reuses += 1;
                    }
                }

                // Phase C: queries without a prune bar scan the freshly
                // streamed cluster exactly.
                for (ti, meta) in tile_meta.iter().enumerate() {
                    if meta.prune || meta.done {
                        continue;
                    }
                    let qs = &mut slots[meta.query as usize];
                    let flat = &tile_luts[ti];
                    if let Some(scan) = scan {
                        for (i, &pid) in scan.ids.iter().enumerate() {
                            let code = &scan.codes[i * subspaces..(i + 1) * subspaces];
                            let raw = meta.centroid_term
                                + ProductQuantizer::adc_distance_flat(flat, entries, code);
                            qs.topk.push(pid as u64, raw);
                            qs.ctr.exact += 1;
                        }
                    } else {
                        for &pid in self
                            .ivf
                            .list(cluster)
                            .expect("cluster comes from the filter stage")
                        {
                            let code = self.codes.code(pid as usize);
                            let raw = meta.centroid_term
                                + ProductQuantizer::adc_distance_flat(flat, entries, code);
                            qs.topk.push(pid as u64, raw);
                            qs.ctr.exact += 1;
                        }
                    }
                }
            }
        }

        let mut out = Vec::with_capacity(scratch.touched.len());
        for i in 0..scratch.touched.len() {
            let q = scratch.touched[i];
            let qs = &mut scratch.slots[q as usize];
            let mut top = Vec::new();
            qs.topk.drain_entries(&mut top);
            out.push(PqPartial {
                query: q,
                top,
                ctr: qs.ctr,
            });
        }
        out
    }

    /// Cluster-major grouped batch search (see the `search_batch_threads`
    /// override): plan → schedule → grouped scan → per-query gather, bit-
    /// identical to a sequential [`AnnIndex::search`] loop.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AnnIndex::search`].
    pub fn search_batch_grouped(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        if k == 0 {
            return Err(Error::invalid_config("k must be positive"));
        }
        let nq = queries.len();
        if nq == 0 {
            return Ok(Vec::new());
        }
        if queries.dim() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: queries.dim(),
            });
        }
        let filters = parallel::map(nq, num_threads, |i| {
            self.ivf.filter(queries.row(i), self.nprobs)
        })?
        .into_iter()
        .collect::<Result<Vec<_>>>()?;

        // Seed pass: each query scans its nearest probe query-major, so the
        // cluster-major pass starts from a tight (and provably safe) prune
        // bound instead of filling top-ks with far-cluster candidates.
        let cache = if self.fastscan {
            Some(
                self.scan_cache
                    .get_or_init(|| ScanCache::build(&self.ivf, &self.codes)),
            )
        } else {
            None
        };
        let metric = self.metric;
        let seed_results = parallel::map_with(
            nq,
            num_threads,
            0,
            || (Vec::new(), QuantizedLut::new(), [0u16; BLOCK_LANES]),
            |(flat, qlut, lane_sums), qi| -> Result<PqSeed> {
                let mut topk = TopK::new(k, metric);
                let mut ctr = PqCounters::default();
                if let Some(&c) = filters[qi].clusters.first() {
                    self.scan_cluster_single(
                        queries.row(qi),
                        c,
                        cache.map(|cache| &cache.clusters[c]),
                        flat,
                        qlut,
                        lane_sums,
                        &mut topk,
                        &mut ctr,
                    )?;
                }
                let bound = topk.worst_score();
                let mut top = Vec::new();
                topk.drain_entries(&mut top);
                Ok((top, bound, ctr))
            },
        )?
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        let seed_bounds: Vec<Option<f32>> = seed_results.iter().map(|s| s.1).collect();

        let probe_lists: Vec<&[usize]> = filters
            .iter()
            .map(|f| &f.clusters[1.min(f.clusters.len())..])
            .collect();
        let sched = GroupSchedule::build(
            self.ivf.n_clusters(),
            &probe_lists,
            1,
            |c| self.ivf.list(c).map_or(0, <[u32]>::len),
            GROUP_CHUNK_WORK,
        );
        let partial_lists = parallel::map_with(
            sched.num_chunks(),
            num_threads,
            1,
            || self.make_group_scratch(),
            |scratch, ci| self.scan_group_chunk(queries, k, &sched, ci, &seed_bounds, scratch),
        )?;

        let mut per_query: Vec<Vec<PqPartial>> = (0..nq).map(|_| Vec::new()).collect();
        for list in partial_lists {
            for partial in list {
                per_query[partial.query as usize].push(partial);
            }
        }
        let mut out = Vec::with_capacity(nq);
        for ((qi, filter), (seed_top, _, seed_ctr)) in filters.iter().enumerate().zip(&seed_results)
        {
            let mut ctr = *seed_ctr;
            let mut topk = TopK::new(k, self.metric);
            for &(id, score) in seed_top {
                topk.push_score(id, score);
            }
            for partial in &per_query[qi] {
                ctr.merge(&partial.ctr);
                for &(id, score) in &partial.top {
                    topk.push_score(id, score);
                }
            }
            out.push(self.finish_result(
                filter.clusters.len(),
                filter.distance_computations,
                topk.into_sorted_vec(),
                &ctr,
            ));
        }
        Ok(out)
    }
}

impl AnnIndex for IvfPqIndex {
    fn metric(&self) -> Metric {
        self.metric
    }

    fn dim(&self) -> usize {
        self.ivf.dim()
    }

    fn len(&self) -> usize {
        self.num_points
    }

    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
        if k == 0 {
            return Err(Error::invalid_config("k must be positive"));
        }
        if query.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: query.len(),
            });
        }
        let filter = self.ivf.filter(query, self.nprobs)?;

        let mut topk = TopK::new(k, self.metric);
        let mut ctr = PqCounters::default();
        // Fast-scan scratch (same kernel + bound machinery as the JUNO
        // engine, so cross-engine comparisons measure the same scan).
        let mut flat: Vec<f32> = Vec::new();
        let mut qlut = QuantizedLut::new();
        let mut lane_sums = [0u16; BLOCK_LANES];
        let cache = if self.fastscan {
            Some(
                self.scan_cache
                    .get_or_init(|| ScanCache::build(&self.ivf, &self.codes)),
            )
        } else {
            None
        };

        for &c in &filter.clusters {
            self.scan_cluster_single(
                query,
                c,
                cache.map(|cache| &cache.clusters[c]),
                &mut flat,
                &mut qlut,
                &mut lane_sums,
                &mut topk,
                &mut ctr,
            )?;
        }
        Ok(self.finish_result(
            filter.clusters.len(),
            filter.distance_computations,
            topk.into_sorted_vec(),
            &ctr,
        ))
    }

    /// Batch search, cluster-major: plans the batch (probe selection per
    /// query, parallel), builds the shared cluster→query-group schedule and
    /// scans clusters in storage order — each cluster's codes stream once
    /// per [`GROUP_TILE`]-query tile through the same multi-query prune
    /// kernel the JUNO engine uses. Bit-identical (ids and distance bits) to
    /// a sequential [`AnnIndex::search`] loop; tiny batches fall back to the
    /// query-major default.
    fn search_batch_threads(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        if queries.len() < MIN_GROUP_QUERIES {
            return parallel::map(queries.len(), num_threads, |i| {
                self.search(queries.row(i), k)
            })?
            .into_iter()
            .collect();
        }
        self.search_batch_grouped(queries, k, num_threads)
    }

    fn supports_mutation(&self) -> bool {
        true
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    fn insert(&mut self, vector: &[f32]) -> Result<u64> {
        IvfPqIndex::insert(self, vector)
    }

    fn remove(&mut self, id: u64) -> Result<bool> {
        IvfPqIndex::remove(self, id)
    }

    /// Live ids are exactly the members of the coarse inverted lists
    /// (removal prunes the list; the code rows of dead ids are retained but
    /// unreachable).
    fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = (0..self.ivf.n_clusters())
            .filter_map(|c| self.ivf.list(c).ok())
            .flat_map(|list| list.iter().map(|&id| id as u64))
            .collect();
        ids.sort_unstable();
        ids
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        Ok(self.to_snapshot_bytes())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        *self = IvfPqIndex::from_snapshot_bytes(bytes)?;
        Ok(())
    }

    fn name(&self) -> String {
        format!(
            "IVF{},PQ{}(nprobs={})",
            self.ivf.n_clusters(),
            self.pq.num_subspaces(),
            self.nprobs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::recall::{r1_at_100, recall_at};
    use juno_data::profiles::DatasetProfile;

    fn build(
        profile: DatasetProfile,
        n: usize,
        q: usize,
        cfg: IvfPqConfig,
    ) -> (juno_data::profiles::Dataset, IvfPqIndex) {
        let ds = profile.generate(n, q, 17).unwrap();
        let index = IvfPqIndex::build(&ds.points, &cfg).unwrap();
        (ds, index)
    }

    fn deep_cfg() -> IvfPqConfig {
        IvfPqConfig {
            n_clusters: 32,
            nprobs: 8,
            pq_subspaces: 48,
            pq_entries: 64,
            metric: Metric::L2,
            seed: 3,
        }
    }

    #[test]
    fn recall_is_reasonable_on_clustered_data() {
        let (ds, index) = build(DatasetProfile::DeepLike, 4_000, 20, deep_cfg());
        let gt = ds.ground_truth(1).unwrap();
        let retrieved: Vec<Vec<u64>> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 100).unwrap().ids())
            .collect();
        let r = r1_at_100(&retrieved, &gt).unwrap();
        assert!(r > 0.8, "R1@100 {r} too low for an IVFPQ baseline");
    }

    #[test]
    fn recall_improves_with_nprobs() {
        let (ds, mut index) = build(DatasetProfile::DeepLike, 3_000, 20, deep_cfg());
        let gt = ds.ground_truth(10).unwrap();
        let recall_with = |index: &IvfPqIndex| {
            let retrieved: Vec<Vec<u64>> = ds
                .queries
                .iter()
                .map(|q| index.search(q, 10).unwrap().ids())
                .collect();
            recall_at(&retrieved, &gt, 10, 10).unwrap()
        };
        index.set_nprobs(1);
        let low = recall_with(&index);
        index.set_nprobs(16);
        let high = recall_with(&index);
        assert!(
            high >= low,
            "recall should not drop with more probes ({low} -> {high})"
        );
    }

    #[test]
    fn simulated_time_grows_with_nprobs() {
        let (ds, mut index) = build(DatasetProfile::DeepLike, 3_000, 5, deep_cfg());
        index.set_nprobs(2);
        let t2 = index.search(ds.queries.row(0), 10).unwrap().simulated_us;
        index.set_nprobs(16);
        let t16 = index.search(ds.queries.row(0), 10).unwrap().simulated_us;
        assert!(t16 > t2, "more probes must cost more simulated time");
    }

    #[test]
    fn stats_reflect_dense_lut_work() {
        let (ds, index) = build(DatasetProfile::DeepLike, 2_000, 5, deep_cfg());
        let res = index.search(ds.queries.row(0), 10).unwrap();
        assert_eq!(res.stats.filter_distances, 32);
        // Dense LUT: nprobs × E × subspaces pairwise distances.
        assert_eq!(res.stats.lut_distances, 8 * 64 * 48);
        assert!(res.stats.candidates > 0);
        // `candidates` counts considered points (incl. bound-pruned ones);
        // accumulations reflect only the exactly re-ranked remainder.
        assert_eq!(
            res.stats.accumulations,
            (res.stats.candidates - res.stats.pruned_points) * 48
        );
        assert!(res.stats.lut_us > res.stats.filter_us);
    }

    #[test]
    fn inner_product_metric_ranks_by_dot_product() {
        let cfg = IvfPqConfig {
            n_clusters: 16,
            nprobs: 8,
            pq_subspaces: 40,
            pq_entries: 32,
            metric: Metric::InnerProduct,
            seed: 5,
        };
        let (ds, index) = build(DatasetProfile::TtiLike, 2_000, 10, cfg);
        let gt = ds.ground_truth(10).unwrap();
        let retrieved: Vec<Vec<u64>> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 100).unwrap().ids())
            .collect();
        let r = recall_at(&retrieved, &gt, 10, 100).unwrap();
        assert!(r > 0.5, "MIPS recall {r} too low");
        // Raw distances are inner products: best neighbour should have the
        // largest value.
        let res = index.search(ds.queries.row(0), 5).unwrap();
        for w in res.neighbors.windows(2) {
            assert!(w[0].distance >= w[1].distance);
        }
    }

    #[test]
    fn mutation_inserts_and_removes_points() {
        let (ds, mut index) = build(DatasetProfile::DeepLike, 1_500, 4, deep_cfg());
        let n0 = index.len();
        let probe = ds.points.row(7).to_vec();
        let id = index.insert(&probe).unwrap();
        assert_eq!(id as usize, n0);
        assert_eq!(index.len(), n0 + 1);
        assert!(index.supports_mutation());
        let res = index.search(&probe, 5).unwrap();
        assert!(res.ids().contains(&id), "inserted duplicate not retrieved");

        assert!(index.remove(id).unwrap());
        assert!(!index.remove(id).unwrap());
        assert!(!index.remove(u64::MAX).unwrap());
        assert_eq!(index.len(), n0);
        assert!(!index.search(&probe, 5).unwrap().ids().contains(&id));
        assert!(index.insert(&[1.0; 3]).is_err());
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical_including_mutation() {
        let (ds, mut index) = build(DatasetProfile::DeepLike, 1_200, 6, deep_cfg());
        for i in 0..25 {
            index.insert(ds.points.row(i * 13)).unwrap();
        }
        for id in (0..120u64).step_by(4) {
            assert!(index.remove(id).unwrap());
        }
        let bytes = index.snapshot().unwrap();
        let restored = IvfPqIndex::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), index.len());
        for q in ds.queries.iter() {
            let a = index.search(q, 20).unwrap();
            let b = restored.search(q, 20).unwrap();
            assert_eq!(a.ids(), b.ids());
            for (na, nb) in a.neighbors.iter().zip(&b.neighbors) {
                assert_eq!(na.distance.to_bits(), nb.distance.to_bits());
            }
        }
        // Corruption and truncation are rejected without panicking.
        for len in (0..bytes.len()).step_by(131) {
            assert!(IvfPqIndex::from_snapshot_bytes(&bytes[..len]).is_err());
        }
        let mut wrong_kind = bytes.clone();
        wrong_kind[12] ^= 0xFF;
        assert!(IvfPqIndex::from_snapshot_bytes(&wrong_kind).is_err());
        // In-place trait restore.
        let (_, mut other) = build(DatasetProfile::DeepLike, 800, 2, deep_cfg());
        other.restore(&bytes).unwrap();
        assert_eq!(other.len(), index.len());
        assert!(index.supports_snapshot());
    }

    #[test]
    fn fastscan_results_are_bit_identical_to_the_dense_scan() {
        for (profile, metric, pq_entries) in [
            (DatasetProfile::DeepLike, Metric::L2, 64),
            (DatasetProfile::DeepLike, Metric::L2, 16), // nibble-packed path
            (DatasetProfile::TtiLike, Metric::InnerProduct, 32),
        ] {
            let cfg = IvfPqConfig {
                n_clusters: 24,
                nprobs: 8,
                pq_subspaces: 48,
                pq_entries,
                metric,
                seed: 11,
            };
            let subspaces = if metric == Metric::InnerProduct {
                40
            } else {
                48
            };
            let cfg = IvfPqConfig {
                pq_subspaces: subspaces,
                ..cfg
            };
            let (ds, mut index) = build(profile, 2_000, 10, cfg);
            // Mutate so the rebuilt scan cache also covers surgically edited
            // lists.
            for id in (0..100u64).step_by(7) {
                assert!(index.remove(id).unwrap());
            }
            for i in 0..20 {
                index.insert(ds.points.row(i * 31)).unwrap();
            }
            assert!(index.fastscan_enabled());
            let fast: Vec<_> = ds
                .queries
                .iter()
                .map(|q| index.search(q, 50).unwrap())
                .collect();
            index.set_fastscan(false);
            let exact: Vec<_> = ds
                .queries
                .iter()
                .map(|q| index.search(q, 50).unwrap())
                .collect();
            let mut total_pruned = 0usize;
            for (qi, (f, e)) in fast.iter().zip(&exact).enumerate() {
                assert_eq!(f.ids(), e.ids(), "{metric} E={pq_entries} query {qi}");
                for (nf, ne) in f.neighbors.iter().zip(&e.neighbors) {
                    assert_eq!(
                        nf.distance.to_bits(),
                        ne.distance.to_bits(),
                        "{metric} E={pq_entries} query {qi}"
                    );
                }
                total_pruned +=
                    f.stats.pruned_points + f.stats.pruned_clusters + f.stats.pruned_blocks;
                assert_eq!(e.stats.pruned_points, 0, "dense path never prunes");
            }
            assert!(
                total_pruned > 0,
                "{metric} E={pq_entries}: fast-scan never pruned anything"
            );
        }
    }

    #[test]
    fn accessors_and_validation() {
        let (ds, index) = build(DatasetProfile::DeepLike, 1_000, 2, deep_cfg());
        assert_eq!(index.len(), 1_000);
        assert_eq!(index.dim(), 96);
        assert_eq!(index.nprobs(), 8);
        assert_eq!(index.pq().num_subspaces(), 48);
        assert_eq!(index.codes().len(), 1_000);
        assert!(index.name().starts_with("IVF32,PQ48"));
        assert!(index.search(ds.queries.row(0), 0).is_err());
        assert!(index.search(&[0.0; 4], 1).is_err());
        assert!(IvfPqIndex::build(
            &ds.points,
            &IvfPqConfig {
                nprobs: 0,
                ..deep_cfg()
            }
        )
        .is_err());
    }
}
