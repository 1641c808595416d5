//! KAISA-style distributed K-FAC with pluggable gradient compression.
//!
//! Each rank owns a full model replica and a data shard. Per iteration
//! (Fig. 2 of the paper):
//!
//! 1. local forward/backward;
//! 2. **bucketed** ring reduce of the raw gradients *to their owners*:
//!    only a layer's owner reads its averaged gradient (step 4) — every
//!    other rank receives the layer through step 5 — so the K-FAC
//!    layers' gradients are flattened into one reusable fusion buffer in
//!    ownership order (rank 0's layers, rank 1's, …) and a single
//!    `reduce_scatter_sum`, the first half of the ring all-reduce, lands
//!    each rank's span on that rank: one collective per step instead of
//!    one per layer (the gradient-fusion argument of the
//!    adaptive-compression systems line of work) and half an
//!    all-reduce's bytes. The owner's means stay in the buffer; the
//!    model keeps each rank's local gradients until step 6 overwrites
//!    them. Trainable layers without K-FAC statistics (`LayerNorm`)
//!    ride at the buffer's end and keep an `allreduce_mean` of their
//!    own;
//! 3. per-K-FAC-layer covariances, folded **locally** into the running
//!    factors every step with no communication, and synced **on
//!    consume**: the EMA is linear, so the mean of the ranks' running
//!    factors *is* the running factor of the mean covariances, and the
//!    only reader is step 4's refresh. On a step where a layer's refresh
//!    is due (`steps % eigen_refresh == 0`, step 0 included, identical on
//!    every rank) the due layers' running `A`/`G` upper triangles
//!    (n(n+1)/2 values each) are packed into one bucket, ONE
//!    `allreduce_mean` moves the bucket, and the unpack mirrors it back —
//!    replicated and exactly symmetric at that instant, rank-local in
//!    between. A membership epoch change syncs *all* layers on the next
//!    step (adoption, rejoin catch-up and cross-world restore hand out
//!    one rank's copy);
//! 4. the *owner* of each layer (greedy cost-balanced assignment, as in
//!    KAISA, built before step 3 from the static layer shapes) — and
//!    only the owner — refreshes the layer's inverse
//!    (eigendecompositions or Cholesky factors) on schedule and
//!    preconditions its gradient. Inverses are **not** replicated: a
//!    non-owner drops its cached copy on a refresh step, so a stale one
//!    can never be applied, and a rank that finds no inverse for a layer
//!    it now owns (elastic reshard, rejoin catch-up) rebuilds it on
//!    adoption from the just-synced running factors;
//! 5. **pipelined** ring all-gather of the preconditioned gradients — the
//!    traffic COMPSO compresses, and the one schedule this step has.
//!    Owners compress their layers in aggregation groups of up to
//!    `aggregation` layers ([`Compressor::compress_group_keyed`] with a
//!    cached [`LayerSchedule`], the paper's "pre-determined layer-block
//!    hashmap"); each group travels in its own CRC-32 checksum frame, and
//!    a ring slot carries a *run* of consecutive frames — one group per
//!    slot, sent the moment it is compressed, so compression overlaps
//!    the wire, and a rank validates and decodes its peers' groups in
//!    the waits for its left link (at two ranks: once its own last group
//!    is out, each **as it lands** from then on): the paper's headline
//!    compression–communication overlap.
//!    Compress-then-gather is the degenerate run (all of a rank's groups
//!    in one slot, [`DistKfacConfig::pipeline_gather`]): same frames,
//!    same compression order, same RNG stream, same code;
//! 6. every rank decodes its own frames (the ring never brings them
//!    back), repairs what failed to decode (below), installs the
//!    preconditioned gradients in rank order and applies the identical
//!    SGD(+momentum) update.
//!
//! # Fault model and the degradation ladder
//!
//! Every collective call is **fallible** ([`CommError`]): receives carry
//! deadlines, transport faults are absorbed by the comm layer's ARQ, and
//! a crashed peer surfaces as `Poisoned`/`Disconnected` instead of a
//! hang. On top of that, every compressed all-gather payload travels
//! inside a CRC-32 checksum frame, and a payload that fails its checksum
//! or does not decode walks a **degradation ladder** (DESIGN.md §9)
//! instead of panicking:
//!
//! * **rung 1** — request a compressed resend from the origin (the origin
//!   keeps a clean framed copy of what it sent);
//! * **rung 2** — request an *uncompressed* resend of the values the
//!   origin itself installed (so a successful rung 2 keeps replicas
//!   consistent);
//! * **rung 3** — degrade locally: reuse the last good preconditioned
//!   gradient for the affected layer group, or — when none exists yet —
//!   leave this rank's local raw gradient in place (step 2 averages a
//!   layer on its owner only), i.e. take a plain SGD step on the local
//!   batch for those layers. Training continues either way.
//!
//! A tiny always-on repair status exchange after the all-gather keeps the
//! repair schedule deterministic across ranks (everyone learns which
//! (requester, origin) pairs need repair, so nobody deadlocks waiting for
//! traffic that will never come). All ladder activity is counted into the
//! recorder (`kfac/degrade/*`) so the chaos suite can reconcile observed
//! degradations against the fault plane's injection ledger exactly.

use crate::kfac::{covariance, Kfac, KfacConfig};
use compso_comm::collectives::{
    allgather_var_quiet, allreduce_mean, pipelined_allgather, reduce_scatter_sum,
};
use compso_comm::{CommError, Communicator, Payload};
use compso_core::wire::{frame_checksummed, framed_len, unframe_checksummed, Reader, Writer};
use compso_core::{CompressError, Compressor, LayerSchedule};
use compso_dnn::Sequential;
use compso_obs::{names, Recorder};
use compso_tensor::{Matrix, Rng};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Distributed K-FAC configuration.
pub struct DistKfacConfig {
    /// Core K-FAC hyperparameters.
    pub kfac: KfacConfig,
    /// Layers aggregated per compressed unit (§4.4's factor `m`).
    pub aggregation: usize,
    /// Aggregation groups per ring slot of the step-5 gather: one
    /// (`true`: compress group *k+1* while group *k*'s hops are in
    /// flight) or all of a rank's (`false`: compress-then-gather). It
    /// selects that integer and nothing else — one code path,
    /// bit-identical results; the overlap A/B lives in `kernel_gates`.
    pub pipeline_gather: bool,
}

impl Default for DistKfacConfig {
    fn default() -> Self {
        DistKfacConfig {
            kfac: KfacConfig::default(),
            aggregation: 4,
            pipeline_gather: true,
        }
    }
}

/// Communication accounting for one step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Preconditioned-gradient bytes this rank would all-gather raw.
    pub gather_bytes_original: u64,
    /// Bytes actually all-gathered (equals original without compression).
    pub gather_bytes_wire: u64,
    /// Reduction volume in bytes *this step* — the size of the buffers
    /// reduced, not the wire bytes a ring spends reducing them: the
    /// step-2 gradient bucket plus, on a factor-sync step only, the
    /// step-3 bucket of packed upper triangles (both always travel
    /// uncompressed).
    pub allreduce_bytes: u64,
}

impl StepStats {
    /// Compression ratio achieved on the all-gather this step.
    pub fn gather_ratio(&self) -> f64 {
        if self.gather_bytes_wire == 0 {
            return 1.0;
        }
        self.gather_bytes_original as f64 / self.gather_bytes_wire as f64
    }
}

/// Greedy cost-balanced layer→rank assignment (KAISA's work split):
/// layers sorted by descending cost land on the currently least-loaded
/// rank. Deterministic, so every rank computes the same map.
pub fn assign_layers(costs: &[f64], ranks: usize) -> Vec<usize> {
    assert!(ranks > 0);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&x, &y| costs[y].total_cmp(&costs[x]).then(x.cmp(&y)));
    let mut load = vec![0.0f64; ranks];
    let mut owner = vec![0usize; costs.len()];
    for idx in order {
        let r = (0..ranks)
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            // lint:allow(no-unwrap-on-comm-path): ranks > 0 is asserted above, so the range is non-empty
            .unwrap();
        owner[idx] = r;
        load[r] += costs[idx];
    }
    owner
}

/// A broken expectation about the model that blames no rank.
fn protocol(expected: &'static str) -> CommError {
    CommError::Protocol { expected }
}

/// One layer of a rank's gather payload: `(layer idx, rows, cols)`.
type LayerShape = (usize, usize, usize);

/// One origin's decoded layers, or why it takes the degradation ladder.
type Decoded = Result<Vec<(usize, Matrix)>, CompressError>;

/// What step 5 hands to step 6.
struct Gathered {
    /// This rank's preconditioned gradients, in layer order.
    owned: Vec<(usize, Matrix)>,
    /// Clean copy of the frames this rank sent: the source of its own
    /// decode and the ladder's rung-1 resend body.
    clean: Vec<u8>,
    /// Per origin, what its slots decoded to as they landed (this rank's
    /// own entry is filled in by step 6).
    results: Vec<Decoded>,
}

/// The step's one cache: everything that is a pure function of the
/// static layer shapes, the membership view, `aggregation` and the
/// compressor's chunk choices. Laid out once where the ownership map is
/// computed; dropped whole by a membership epoch change
/// (`kfac/elastic/reshards`) or by a compressor switch or changed chunk
/// choice (`ctrl/schedule_invalidations`).
#[derive(Default)]
struct GatherPlan {
    /// Membership epoch the ownership map was computed under.
    epoch: u64,
    /// Compressor the schedules were laid out for; `None` while only
    /// `owners` is known (imported from a checkpoint, where it decides
    /// who saves what until the next step lays the plan out).
    compressor: Option<&'static str>,
    /// The model's K-FAC layer indices, and each one's owner rank.
    layers: Vec<usize>,
    owners: Vec<usize>,
    /// Per rank, the layers its payload must carry, in layer order: what
    /// hostile payload headers are validated against before any decode
    /// work, and the layers an undecodable origin leaves to rung 3.
    expected: Vec<Vec<LayerShape>>,
    /// Per rank, the span of the step-2 gradient bucket its layers fill:
    /// the bucket is laid out in `expected` order, so what a rank must
    /// reduce is one contiguous block (empty when it owns nothing).
    spans: Vec<Range<usize>>,
    /// The trainable layers without K-FAC statistics, which nobody
    /// owns: their gradients follow the last span and are all-reduced.
    tail: Vec<usize>,
    /// Layers per aggregation group (`aggregation`, at least 1) and per
    /// ring slot (× the groups a slot carries), and the resulting ring
    /// slots per rank.
    m: usize,
    slot_layers: usize,
    slots: Vec<usize>,
    /// Per aggregation group this rank owns: its element count and the
    /// chunk size the compressor named for it (fixed compressors name
    /// their default, adaptive ones scale it with the count — §4.4 —
    /// and schedule-less ones name none).
    groups: Vec<(usize, Option<usize>)>,
    /// One [`LayerSchedule`] per owned group — the paper's layer-block
    /// hashmap "built during the initialization of the KFAC optimizer and
    /// reused for the rest of the iterations" — or none when the
    /// compressor named no chunk size.
    schedules: Vec<LayerSchedule>,
}

impl GatherPlan {
    /// The layers ring slot `slot` carries, as a range into a rank's
    /// `len` layers. Always in bounds; empty past the rank's last slot.
    fn run(&self, len: usize, slot: usize) -> Range<usize> {
        let lo = slot.saturating_mul(self.slot_layers).min(len);
        lo..lo.saturating_add(self.slot_layers).min(len)
    }

    /// Where the owned spans end and the non-K-FAC tail begins in the
    /// step-2 gradient bucket.
    fn tail_start(&self) -> usize {
        self.spans.last().map_or(0, |span| span.end)
    }
}

/// One rank's distributed K-FAC optimizer instance.
pub struct DistKfac {
    kfac: Kfac,
    config: DistKfacConfig,
    /// The cached [`GatherPlan`], shared with the running step.
    plan: Option<Arc<GatherPlan>>,
    /// Times the plan laid out layer schedules. Stays at ≤ 1 for any
    /// fixed compressor; exposed for the reuse-invariant tests.
    schedule_builds: u32,
    /// Membership epoch of the last completed factor phase; until it
    /// equals [`Communicator::epoch`] that phase syncs every layer.
    synced_epoch: u64,
    /// Whether the current `step`/`step_elastic` call has folded its
    /// covariances: the fold belongs to the backward pass, not to the
    /// attempt, so an elastic retry must not repeat it.
    folded: bool,
    /// Per K-FAC layer, whether this call's fold fell on the refresh
    /// schedule — kept across elastic retries with `folded`.
    due: Vec<bool>,
    /// Reusable fusion buffer of the bucketed step-2 gradient sync (no
    /// per-step allocation churn). From step 2 to step 6 it holds this
    /// rank's averaged gradients: its own span and the non-K-FAC tail.
    fusion: Vec<f32>,
    /// Last successfully decoded preconditioned gradient per layer — the
    /// ladder's rung-3 fallback store. Populated only while a fault
    /// campaign is armed, so the fault-free hot path pays nothing.
    last_good: BTreeMap<usize, Matrix>,
    /// RNG for stochastic compression.
    rng: Rng,
    /// Observability sink for the step's sub-phases (Fig. 1 taxonomy);
    /// disabled (no-op) by default.
    recorder: Recorder,
}

impl DistKfac {
    /// Creates the per-rank optimizer. `seed` must be identical across
    /// ranks for identical parameter trajectories.
    pub fn new(config: DistKfacConfig, seed: u64) -> Self {
        DistKfac {
            kfac: Kfac::new(config.kfac),
            config,
            plan: None,
            schedule_builds: 0,
            synced_epoch: 0,
            folded: false,
            due: Vec::new(),
            fusion: Vec::new(),
            last_good: BTreeMap::new(),
            rng: Rng::new(seed ^ 0xFACADE),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder. Each subsequent [`DistKfac::step`]
    /// records the `kfac/step` wall time and its sub-phases
    /// (`kfac/step/{grad_sync,factor,inverse,allgather,update}`, plus the
    /// own-frame decode nested in `update`), and the compressor's
    /// per-phase timers / traffic counters flow into the same registry
    /// (it is the `rec` of [`Compressor::compress_group_keyed`]).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// One distributed optimization step after a local forward/backward.
    /// `compressor` handles the preconditioned-gradient all-gather
    /// (pass [`compso_core::NoCompression`] for the paper's baseline).
    ///
    /// Returns the step's communication statistics, or the first
    /// unrecoverable transport error ([`CommError`]) — timeouts, exhausted
    /// retries, a poisoned group. Recoverable trouble (corrupted or
    /// undecodable compressed payloads) never surfaces here: it is
    /// absorbed by the degradation ladder (see the module docs) and shows
    /// up in the `kfac/degrade/*` counters instead.
    ///
    /// This calls [`Communicator::begin_step`] internally, so a scheduled
    /// crash-at-step fault fires at the top of the step; drive the step
    /// counter through this method only.
    pub fn step(
        &mut self,
        comm: &mut Communicator,
        model: &mut Sequential,
        compressor: &dyn Compressor,
    ) -> Result<StepStats, CommError> {
        self.folded = false;
        self.step_attempt(comm, model, compressor)
    }

    /// One attempt at the step; [`DistKfac::step_elastic`] re-enters it
    /// after a shrink. Each phase opens its own span and owns its own `?`
    /// boundary.
    fn step_attempt(
        &mut self,
        comm: &mut Communicator,
        model: &mut Sequential,
        compressor: &dyn Compressor,
    ) -> Result<StepStats, CommError> {
        // Two events drop the plan. A membership epoch change (shrink or
        // rejoin): the ownership map was computed for another world
        // size; rebuilt over virtual ranks `0..comm.size()`, it lands a
        // dead rank's groups on survivors and hands a rejoined rank its
        // share back. A compressor switch or changed chunk choice: the
        // schedules' geometry would mis-tile the new one. Every rank
        // observes both at the same step boundary (the controller is
        // deterministic and replica-identical), so plans stay in lockstep.
        if let Some(plan) = &self.plan {
            let resharded = plan.epoch != comm.epoch();
            let switched = plan.compressor.is_some_and(|c| c != compressor.name())
                || (plan.groups.iter())
                    .any(|&(elems, choice)| compressor.chunk_elems_for(elems) != choice);
            if resharded {
                self.recorder.incr(names::KFAC_ELASTIC_RESHARDS);
            }
            if switched {
                self.recorder.incr(names::CTRL_SCHEDULE_INVALIDATIONS);
            }
            if resharded || switched || plan.compressor.is_none() {
                self.plan = None;
            }
        }
        let step_idx = comm.begin_step();
        let _step_span = self.recorder.span(names::KFAC_STEP);
        let mut stats = StepStats::default();
        let plan = self.plan_for(comm, model, compressor)?;
        self.sync_gradients(comm, model, &plan, &mut stats)?;
        self.sync_factors(comm, model, &plan, &mut stats)?;
        let owned = self.precondition_owned(comm.rank(), &plan);
        let gathered = self.gather(comm, compressor, &plan, owned, step_idx, &mut stats)?;
        self.repair_and_install(comm, model, compressor, &plan, gathered, step_idx)?;
        Ok(stats)
    }

    /// (2) Bucketed gradient sync: flatten into the fusion buffer in
    /// ownership order, ONE `reduce_scatter_sum` that lands each rank's
    /// span on it, and the mean taken over that span only. The model is
    /// not written: a retry after a shrink re-reduces the same local
    /// gradients over the survivors. The non-K-FAC tail, when the model
    /// has one (its structure is replicated, so every rank agrees), is
    /// all-reduced where it lies.
    fn sync_gradients(
        &mut self,
        comm: &mut Communicator,
        model: &Sequential,
        plan: &GatherPlan,
        stats: &mut StepStats,
    ) -> Result<(), CommError> {
        let _span = self.recorder.span(names::KFAC_GRAD_SYNC);
        {
            let _bucket = self.recorder.span(names::KFAC_BUCKET);
            self.fusion.clear();
            let by_owner = plan.expected.iter().flatten().map(|&(idx, _, _)| idx);
            for idx in by_owner.chain(plan.tail.iter().copied()) {
                let grad = (model.layer(idx).grads())
                    .ok_or(protocol("trainable layer with a gradient"))?;
                self.fusion.extend_from_slice(grad.as_slice());
            }
        }
        stats.allreduce_bytes += self.fusion.len() as u64 * 4;
        let (owned, tail) = self.fusion.split_at_mut(plan.tail_start());
        reduce_scatter_sum(comm, owned, &plan.spans)?;
        let inv = 1.0 / comm.size() as f32;
        for v in &mut owned[plan.spans[comm.rank()].clone()] {
            *v *= inv;
        }
        if !tail.is_empty() {
            allreduce_mean(comm, tail)?;
        }
        Ok(())
    }

    /// The cached plan, laid out first if there is none: *before* the
    /// gradient sync (the costs depend only on the static layer shapes),
    /// so step 2 knows whose span is whose and step 4 whose inverses to
    /// refresh, and once per optimizer lifetime for any fixed compressor
    /// and membership.
    fn plan_for(
        &mut self,
        comm: &Communicator,
        model: &Sequential,
        compressor: &dyn Compressor,
    ) -> Result<Arc<GatherPlan>, CommError> {
        if let Some(plan) = &self.plan {
            return Ok(Arc::clone(plan));
        }
        let layers = model.kfac_indices();
        let mut costs: Vec<f64> = Vec::with_capacity(layers.len());
        let mut shapes: Vec<LayerShape> = Vec::with_capacity(layers.len());
        for &idx in &layers {
            let s =
                (model.kfac_stats(idx)).ok_or(protocol("kfac layer with captured statistics"))?;
            let a = s.a.cols() as f64;
            let g = s.g.cols() as f64;
            costs.push(a * a * a + g * g * g);
            let grad = (model.layer(idx).grads()).ok_or(protocol("kfac layer with a gradient"))?;
            shapes.push((idx, grad.rows(), grad.cols()));
        }
        let owners = assign_layers(&costs, comm.size());
        let mut expected: Vec<Vec<LayerShape>> = vec![Vec::new(); comm.size()];
        for (&owner, &shape) in owners.iter().zip(&shapes) {
            expected[owner].push(shape);
        }
        let mut end = 0usize;
        let spans = (expected.iter())
            .map(|layers| {
                let start = end;
                end += layers.iter().map(|&(_, r, c)| r * c).sum::<usize>();
                start..end
            })
            .collect();
        let mut tail = model.trainable_indices();
        tail.retain(|idx| !layers.contains(idx));
        // One aggregation group per ring slot, or — the no-overlap
        // degenerate — every group a rank owns in its slot 0.
        let m = self.config.aggregation.max(1);
        let slot_layers = if self.config.pipeline_gather {
            m
        } else {
            layers.len().max(1)
        };
        let slots = (expected.iter())
            .map(|e| e.len().div_ceil(slot_layers))
            .collect();
        let mine = &expected[comm.rank()];
        let groups: Vec<(usize, Option<usize>)> = (mine.chunks(m))
            .map(|group| {
                let elems = group.iter().map(|&(_, rows, cols)| rows * cols).sum();
                (elems, compressor.chunk_elems_for(elems))
            })
            .collect();
        let schedules: Option<Vec<LayerSchedule>> = (mine.chunks(m).zip(&groups))
            .map(|(group, &(_, chunk_elems))| {
                let sizes: Vec<usize> = group.iter().map(|&(_, r, c)| r * c).collect();
                Some(LayerSchedule::build(&sizes, chunk_elems?))
            })
            .collect();
        let schedules = schedules.unwrap_or_default();
        self.schedule_builds += u32::from(!schedules.is_empty());
        let plan = Arc::new(GatherPlan {
            epoch: comm.epoch(),
            compressor: Some(compressor.name()),
            layers,
            owners,
            expected,
            spans,
            tail,
            m,
            slot_layers,
            slots,
            groups,
            schedules,
        });
        self.plan = Some(Arc::clone(&plan));
        Ok(plan)
    }

    /// (3) Factor statistics: fold the LOCAL covariances — once per call,
    /// however many elastic attempts it takes — then sync the running
    /// factors of the layers whose refresh is due (all of them after an
    /// epoch change) with ONE `allreduce_mean` over their packed upper
    /// triangles. The condition is replicated state, so every rank
    /// issues the collective on the same steps.
    fn sync_factors(
        &mut self,
        comm: &mut Communicator,
        model: &Sequential,
        plan: &GatherPlan,
        stats: &mut StepStats,
    ) -> Result<(), CommError> {
        let _span = self.recorder.span(names::KFAC_FACTOR);
        if !self.folded {
            self.due.clear();
            for &idx in &plan.layers {
                let s = (model.kfac_stats(idx))
                    .ok_or(protocol("kfac layer with captured statistics"))?;
                let (a_cov, g_cov) = (covariance(&s.a), covariance(&s.g));
                self.due
                    .push(self.kfac.fold_covariances(idx, &a_cov, &g_cov));
            }
            self.folded = true;
        }
        let resync = comm.epoch() != self.synced_epoch;
        let synced = || {
            (plan.layers.iter().zip(&self.due))
                .filter(move |(_, &due)| due || resync)
                .map(|(&idx, _)| idx)
        };
        // Refresh steps only, so the bucket is not worth keeping around.
        let mut bucket: Vec<f32> = Vec::new();
        for (a, g) in synced().filter_map(|idx| self.kfac.factors(idx)) {
            a.pack_upper(&mut bucket);
            g.pack_upper(&mut bucket);
        }
        if !bucket.is_empty() {
            let fused_bytes = bucket.len() as u64 * 4;
            stats.allreduce_bytes += fused_bytes;
            self.recorder
                .add(names::KFAC_FACTOR_FUSED_BYTES, fused_bytes);
            self.recorder.incr(names::KFAC_FACTOR_SYNCS);
            allreduce_mean(comm, &mut bucket)?;
            let mut off = 0usize;
            for idx in synced() {
                if let Some((a, g)) = self.kfac.factors_mut(idx) {
                    off += a.unpack_upper(&bucket[off..]);
                    off += g.unpack_upper(&bucket[off..]);
                }
            }
            debug_assert_eq!(off, bucket.len());
        }
        self.synced_epoch = comm.epoch();
        Ok(())
    }

    /// (4) Owner-only inverses (Fig. 1's eigendecomposition phase) —
    /// refreshed on schedule, or on adoption of a layer this rank holds
    /// no inverse for (the epoch change behind it made step 3 sync every
    /// running factor), and dropped by a non-owner on a refresh step —
    /// then rank `me`'s preconditioned gradients, in layer order, from
    /// the means step 2 left in its span of the fusion buffer.
    fn precondition_owned(&mut self, me: usize, plan: &GatherPlan) -> Vec<(usize, Matrix)> {
        let _span = self.recorder.span(names::KFAC_INVERSE);
        for (pos, &idx) in plan.layers.iter().enumerate() {
            if plan.owners[pos] != me {
                if self.due[pos] {
                    self.kfac.drop_inverse(idx);
                }
            } else if (self.due[pos] || !self.kfac.has_inverse(idx))
                && self.kfac.refresh_inverse(idx)
            {
                self.recorder.add(names::KFAC_INVERSE_REFRESHES, 2);
            }
        }
        let mut offset = plan.spans[me].start;
        (plan.expected[me].iter())
            .map(|&(idx, rows, cols)| {
                let mean = self.fusion[offset..offset + rows * cols].to_vec();
                offset += rows * cols;
                let mean = Matrix::from_vec(rows, cols, mean);
                (idx, self.kfac.precondition_layer(idx, &mean))
            })
            .collect()
    }

    /// (5) The compressed all-gather: one `pipelined_allgather` whose
    /// slots carry runs of group frames (chunked compressors run the
    /// §4.5 parallel kernels in `produce`, reusing the plan's schedules
    /// on borrowed layer slices), a clean copy staying behind for the
    /// ladder. One origin's slots land in slot order, so its layers
    /// accumulate in layer order, and a failed group marks the whole
    /// origin for the ladder, which repairs at origin granularity.
    fn gather(
        &mut self,
        comm: &mut Communicator,
        compressor: &dyn Compressor,
        plan: &GatherPlan,
        owned: Vec<(usize, Matrix)>,
        step_idx: u64,
        stats: &mut StepStats,
    ) -> Result<Gathered, CommError> {
        let _span = self.recorder.span(names::KFAC_ALLGATHER);
        let (me, m) = (comm.rank(), plan.m);
        let plane = comm.fault_plane().clone();
        let (rng, rec) = (&mut self.rng, &self.recorder);
        let mut clean: Vec<u8> = Vec::new();
        let mut results: Vec<Decoded> = plan.expected.iter().map(|_| Ok(Vec::new())).collect();
        pipelined_allgather(
            comm,
            &plan.slots,
            |slot| {
                let run = plan.run(owned.len(), slot);
                let schedules = plan.schedules.get(run.start / m..).unwrap_or(&[]);
                let mut tx = encode_run(&owned[run], m, schedules, compressor, rng, rec);
                clean.extend_from_slice(&tx);
                if slot == 0 {
                    // Origin-side payload corruption (fault class the
                    // ladder absorbs; no-op with the plane disabled): the
                    // per-(rank, step) decision lands in the first slot.
                    plane.maybe_corrupt_payload(me, step_idx, &mut tx);
                }
                tx
            },
            |origin, slot, bytes| {
                let layers = &plan.expected[origin];
                let run = &layers[plan.run(layers.len(), slot)];
                if let Ok(entries) = &mut results[origin] {
                    match decode_run(&bytes, run, m, compressor, rec) {
                        Ok(decoded) => entries.extend(decoded),
                        Err(e) => results[origin] = Err(e),
                    }
                }
            },
        )?;
        let elems: usize = owned.iter().map(|(_, pre)| pre.len()).sum();
        stats.gather_bytes_original += elems as u64 * 4;
        // The canonical wire payload: the frames, however spread over slots.
        stats.gather_bytes_wire += clean.len() as u64;
        Ok(Gathered {
            owned,
            clean,
            results,
        })
    }

    /// (6) Complete every rank's contribution — our own decodes from the
    /// clean frames, the origin never needs its own repair — and repair
    /// what failed, then install serially in rank order so the result is
    /// independent of arrival order.
    fn repair_and_install(
        &mut self,
        comm: &mut Communicator,
        model: &mut Sequential,
        compressor: &dyn Compressor,
        plan: &GatherPlan,
        mut gathered: Gathered,
        step_idx: u64,
    ) -> Result<(), CommError> {
        let _span = self.recorder.span(names::KFAC_UPDATE);
        self.repair(comm, compressor, plan, step_idx, &mut gathered)?;
        // Install in rank order. Unrepairable payloads take rung 3 per
        // aggregation group: last good preconditioned gradient when one
        // exists, else this rank's local raw gradient, still sitting in
        // the model (a plain SGD step on the local batch for those
        // layers; replicas may diverge at this rung, DESIGN.md §9.4).
        let keep_last_good = comm.fault_plane().is_enabled();
        for (res, expected) in gathered.results.into_iter().zip(&plan.expected) {
            match res {
                Ok(entries) => {
                    for (idx, grad) in entries {
                        if keep_last_good {
                            self.last_good.insert(idx, grad.clone());
                        }
                        model.layer_mut(idx).set_grads(grad);
                    }
                }
                Err(_) => {
                    for group in expected.chunks(plan.m) {
                        let have_all = group
                            .iter()
                            .all(|(idx, _, _)| self.last_good.contains_key(idx));
                        if have_all {
                            self.recorder.incr(names::KFAC_DEGRADE_FALLBACK_LAST_GOOD);
                            for (idx, _, _) in group {
                                let grad = self.last_good[idx].clone();
                                model.layer_mut(*idx).set_grads(grad);
                            }
                        } else {
                            self.recorder.incr(names::KFAC_DEGRADE_FALLBACK_SGD);
                        }
                    }
                }
            }
        }
        // The layers nobody preconditions take their step-2 means.
        let mut offset = plan.tail_start();
        for &idx in &plan.tail {
            let grad = (model.layer_mut(idx).grads_mut())
                .ok_or(protocol("trainable layer with a mutable gradient"))?;
            let n = grad.len();
            grad.as_mut_slice()
                .copy_from_slice(&self.fusion[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// Completes `gathered.results` with this rank's own entry, then
    /// walks degradation ladder rungs 1–2 over it: a tiny always-on
    /// status exchange tells every rank which (requester, origin) pairs
    /// need repair — the schedule stays deterministic, so the
    /// point-to-point repair handshakes cannot deadlock. What is still an
    /// `Err` afterwards takes rung 3 at install.
    fn repair(
        &mut self,
        comm: &mut Communicator,
        compressor: &dyn Compressor,
        plan: &GatherPlan,
        step_idx: u64,
        gathered: &mut Gathered,
    ) -> Result<(), CommError> {
        let (me, p, m) = (comm.rank(), comm.size(), plan.m);
        let plane = comm.fault_plane().clone();
        let rec = &self.recorder;
        {
            let _decode_span = rec.span(names::KFAC_PEER_DECODE);
            gathered.results[me] =
                decode_run(&gathered.clean, &plan.expected[me], m, compressor, rec);
        }
        let failed = |r: &Decoded| u8::from(r.is_err());
        let needs: Vec<u8> = gathered.results.iter().map(failed).collect();
        for (r, &n) in needs.iter().enumerate() {
            if n == 1 {
                debug_assert_ne!(r, me, "own clean payload failed to decode");
                rec.incr(names::KFAC_DEGRADE_CHECKSUM_FAILURES);
                rec.incr(names::KFAC_DEGRADE_REPAIR_REQUESTS);
            }
        }
        let statuses = {
            let _repair_span = rec.span(names::COMM_ALLGATHER_REPAIR);
            allgather_var_quiet(comm, needs, names::COMM_ALLGATHER_REPAIR)?
        };
        let repair_from = |q: usize, o: usize| -> bool {
            q != o && statuses[q].get(o).copied().unwrap_or(0) == 1
        };
        // Precompute the rung-2 bytes once if anyone needs my payload:
        // the values *I installed* — decoded, not raw — so a rung-2
        // repair keeps replicas consistent.
        let rung2_clean = (0..p)
            .any(|q| repair_from(q, me))
            .then(|| frame_checksummed(&flatten_entries(&gathered.results[me], &gathered.owned)));
        // Walk every (origin, requester) repair pair in the SAME global
        // order on every rank. Each handshake involves exactly two ranks
        // and strictly alternates send/recv between them, so processing
        // the pairs in one shared order makes the phase deadlock-free
        // even when repairs are mutual (A needs B's payload while B
        // needs A's) or chained across several ranks.
        for o in 0..p {
            for q in 0..p {
                if !repair_from(q, o) {
                    continue;
                }
                if me == o {
                    // Origin side. Rung 1: compressed resend of the
                    // clean framed copy (all groups, concatenated).
                    let mut r1 = gathered.clean.clone();
                    plane.maybe_corrupt_repair(me, q, step_idx, 1, &mut r1);
                    comm.send(q, Payload::Bytes(r1))?;
                    let ack = comm
                        .recv_labeled(q, names::KFAC_REPAIR_STATUS)?
                        .try_sizes()?;
                    if ack.first() != Some(&1) {
                        // Rung 2: uncompressed resend.
                        // lint:allow(no-unwrap-on-comm-path): repair_from(q, me) implies rung2_clean was precomputed above
                        let mut r2 = rung2_clean.clone().expect("rung2 precomputed");
                        plane.maybe_corrupt_repair(me, q, step_idx, 2, &mut r2);
                        comm.send(q, Payload::Bytes(r2))?;
                    }
                } else if me == q {
                    // Requester side.
                    let r1 = comm.recv_labeled(o, names::KFAC_REPAIR)?.try_bytes()?;
                    match decode_run(&r1, &plan.expected[o], m, compressor, rec) {
                        Ok(entries) => {
                            comm.send(o, Payload::Sizes(vec![1]))?;
                            rec.incr(names::KFAC_DEGRADE_REPAIR_COMPRESSED_OK);
                            gathered.results[o] = Ok(entries);
                        }
                        Err(_) => {
                            comm.send(o, Payload::Sizes(vec![0]))?;
                            let r2 = comm.recv_labeled(o, names::KFAC_REPAIR)?.try_bytes()?;
                            if let Ok(entries) = decode_uncompressed(&r2, &plan.expected[o]) {
                                rec.incr(names::KFAC_DEGRADE_REPAIR_UNCOMPRESSED_OK);
                                gathered.results[o] = Ok(entries);
                            }
                            // Still broken: rung 3 handles it at install.
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// [`DistKfac::step`] with elastic fault handling: a transport error
    /// that names a culprit rank (crash, poison, exhausted retries,
    /// timeout) shrinks the group by quorum agreement, flushes the
    /// surviving streams at the step boundary, and retries on the new
    /// view — the interrupted step is abandoned on every rank alike (the
    /// transport serves a dead peer's in-flight frames before surfacing
    /// the failure, so survivors agree on which step that is). Only
    /// `Protocol` errors — which blame nobody — propagate, as does a
    /// shrink refusal (quorum loss).
    pub fn step_elastic(
        &mut self,
        comm: &mut Communicator,
        model: &mut Sequential,
        compressor: &dyn Compressor,
    ) -> Result<StepStats, CommError> {
        self.folded = false;
        loop {
            match self.step_attempt(comm, model, compressor) {
                Ok(stats) => return Ok(stats),
                Err(e) => {
                    let Some(culprit) = e.culprit() else {
                        return Err(e);
                    };
                    comm.shrink(vec![culprit])?;
                    comm.resync_view()?;
                }
            }
        }
    }

    /// The greedy ownership map, once built.
    pub fn owners(&self) -> Option<&[usize]> {
        self.plan.as_ref().map(|plan| plan.owners.as_slice())
    }

    /// The inner K-FAC optimizer, for factor-state export. Its running
    /// factors are replicated as of the last sync (rank-local folds
    /// since); each cached inverse lives on the layer's owner only.
    pub fn kfac(&self) -> &Kfac {
        &self.kfac
    }

    /// Mutable access to the inner K-FAC optimizer, for factor-state
    /// import at restore.
    pub fn kfac_mut(&mut self) -> &mut Kfac {
        &mut self.kfac
    }

    /// The attached observability recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Exports this rank's distributed-coordination state for
    /// checkpointing: the ownership map, the per-rank compression RNG
    /// stream (ranks consume different amounts, so each rank must save
    /// its own), and the degradation ladder's last-good store. The
    /// factor state itself travels separately via
    /// [`Kfac::export_layer_state`]; the rest of the gather plan is laid
    /// out deterministically again after a restore and is not serialized.
    pub fn export_state(&self) -> DistKfacState {
        // BTreeMap iterates in layer order, so the exported state is a
        // pure function of the map's contents.
        let last_good: Vec<(usize, Matrix)> = self
            .last_good
            .iter()
            .map(|(&idx, m)| (idx, m.clone()))
            .collect();
        DistKfacState {
            owners: self.owners().map(<[usize]>::to_vec),
            rng: self.rng.state(),
            last_good,
        }
    }

    /// Restores the state exported by [`DistKfac::export_state`]. The
    /// next [`DistKfac::step`] continues the interrupted trajectory
    /// bit-identically (given the model, factor state, and communicator
    /// step counter are restored alongside).
    pub fn import_state(&mut self, state: DistKfacState) {
        // Only the map is kept — it decides who saves what until the
        // next step — and that step lays the whole plan out again: the
        // schedules key on the compressor's chunk sizes and the owned
        // shapes, which are not known here.
        self.plan = state.owners.map(|owners| {
            Arc::new(GatherPlan {
                epoch: self.synced_epoch,
                owners,
                ..GatherPlan::default()
            })
        });
        let (s, spare) = state.rng;
        self.rng = Rng::from_state(s, spare);
        self.last_good = state.last_good.into_iter().collect();
    }

    /// How many times the owned-layer schedules have been built. For any
    /// fixed compressor this is 0 (schedule-less compressors) or 1
    /// (chunked compressors) for the optimizer's whole lifetime.
    pub fn schedule_builds(&self) -> u32 {
        self.schedule_builds
    }
}

/// Portable distributed-coordination state of one rank's [`DistKfac`]
/// (everything beyond the replicated factor state), produced by
/// [`DistKfac::export_state`] and consumed by [`DistKfac::import_state`].
#[derive(Clone, Debug)]
pub struct DistKfacState {
    /// Owner rank per K-FAC layer position, once built.
    pub owners: Option<Vec<usize>>,
    /// The stochastic-compression RNG stream `(xoshiro state, cached
    /// spare normal)`.
    pub rng: ([u64; 4], Option<f64>),
    /// The ladder's last-good preconditioned gradients, sorted by layer
    /// index.
    pub last_good: Vec<(usize, Matrix)>,
}

/// Encodes a run of consecutive aggregation groups — `layers` chunked by
/// the aggregation factor `m`, `schedules` aligned with the chunks when
/// the compressor uses any — as the concatenation of their
/// self-contained CRC-32 checksum frames, `[group header][compressed
/// block]` under [`frame_checksummed`], in group order: the unit a ring
/// slot carries. The RNG advances once per group whatever the run
/// length, so how groups are spread over slots never shows in the bytes.
fn encode_run(
    layers: &[(usize, Matrix)],
    m: usize,
    schedules: &[LayerSchedule],
    compressor: &dyn Compressor,
    rng: &mut Rng,
    rec: &Recorder,
) -> Vec<u8> {
    let mut run = Vec::new();
    for (g, group) in layers.chunks(m).enumerate() {
        // Group header: layer ids and shapes. The global layer index
        // doubles as the stable per-layer key for stateful compressors
        // (PowerSGD warm starts / error feedback): it is invariant to
        // ownership splits, so the keyed state — and the wire bytes —
        // agree at any world size.
        let mut payload = Writer::new();
        payload.u32(group.len() as u32);
        let mut keyed: Vec<(u64, &[f32])> = Vec::with_capacity(group.len());
        for (idx, pre) in group {
            payload.u32(*idx as u32);
            payload.u32(pre.rows() as u32);
            payload.u32(pre.cols() as u32);
            keyed.push((*idx as u64, pre.as_slice()));
        }
        payload.block(&compressor.compress_group_keyed(&keyed, schedules.get(g), rng, rec));
        run.extend_from_slice(&frame_checksummed(&payload.into_bytes()));
    }
    run
}

/// Inverse of [`encode_run`]: walks the concatenated frames with
/// [`framed_len`] and validates each against the run's deterministic
/// expectation `expected`, grouped by `m` — every header field *before*
/// any decode work, so a hostile or bit-flipped run fails fast instead of
/// driving allocations. Ring slots as they land, a rank's own clean
/// frames and the ladder's rung-1 resend (one run holding all of a rank's
/// groups) all decode through here.
fn decode_run(
    bytes: &[u8],
    expected: &[LayerShape],
    m: usize,
    compressor: &dyn Compressor,
    rec: &Recorder,
) -> Decoded {
    let mut out: Vec<(usize, Matrix)> = Vec::with_capacity(expected.len());
    let mut rest = bytes;
    for chunk in expected.chunks(m) {
        let len = framed_len(rest).ok_or(CompressError::Corrupt("bad or truncated group frame"))?;
        let (frame, tail) = rest.split_at(len);
        rest = tail;
        let mut r = Reader::new(unframe_checksummed(frame)?);
        if r.u32()? as usize != chunk.len() {
            return Err(CompressError::Corrupt("group length mismatch"));
        }
        for &shape in chunk {
            if (r.u32()? as usize, r.u32()? as usize, r.u32()? as usize) != shape {
                return Err(CompressError::Corrupt("layer header mismatch"));
            }
        }
        let block = r.block()?;
        if !r.is_exhausted() {
            return Err(CompressError::Corrupt("trailing group bytes"));
        }
        let layers = compressor.decompress_group(block, rec)?;
        if layers.len() != chunk.len() {
            return Err(CompressError::Corrupt("decoded layer count mismatch"));
        }
        for (flat, &(idx, rows, cols)) in layers.into_iter().zip(chunk) {
            if flat.len() != rows * cols {
                return Err(CompressError::Corrupt("decoded layer size mismatch"));
            }
            out.push((idx, Matrix::from_vec(rows, cols, flat)));
        }
    }
    if !rest.is_empty() {
        return Err(CompressError::Corrupt("trailing payload bytes"));
    }
    Ok(out)
}

/// Decodes a rung-2 (uncompressed) repair frame: the origin's installed
/// values as raw little-endian f32s, in `expected` order.
fn decode_uncompressed(frame: &[u8], expected: &[LayerShape]) -> Decoded {
    let payload = unframe_checksummed(frame)?;
    let total: usize = expected.iter().map(|&(_, r, c)| r * c).sum();
    if payload.len() != total * 4 {
        return Err(CompressError::Corrupt("uncompressed repair size mismatch"));
    }
    let mut floats =
        (payload.chunks_exact(4)).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
    let layer = |&(idx, rows, cols): &LayerShape| {
        let flat = floats.by_ref().take(rows * cols).collect();
        (idx, Matrix::from_vec(rows, cols, flat))
    };
    Ok(expected.iter().map(layer).collect())
}

/// Serializes the values this rank *installed* for its owned layers (the
/// decoded, possibly-lossy entries when its own decode succeeded, the raw
/// preconditioned matrices otherwise) as raw little-endian f32s — the
/// rung-2 repair body. Sending installed values keeps a repaired replica
/// bit-identical to the origin.
fn flatten_entries(result: &Decoded, owned: &[(usize, Matrix)]) -> Vec<u8> {
    let entries: &[(usize, Matrix)] = match result {
        Ok(entries) => entries,
        Err(_) => owned,
    };
    let floats = entries.iter().flat_map(|(_, m)| m.as_slice());
    floats.flat_map(|v| v.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use compso_comm::run_ranks;
    use compso_core::{ChunkedCompso, CompsoConfig, NoCompression};
    use compso_dnn::loss::{accuracy, softmax_cross_entropy};
    use compso_dnn::{data, models};

    #[test]
    fn assign_layers_balances_costs() {
        let costs = vec![8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        let owners = assign_layers(&costs, 4);
        let mut load = vec![0.0f64; 4];
        for (i, &o) in owners.iter().enumerate() {
            load[o] += costs[i];
        }
        let max = load.iter().cloned().fold(0.0f64, f64::max);
        let min = load.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max - min <= 2.0, "loads {load:?}");
    }

    #[test]
    fn assign_layers_deterministic() {
        let costs = vec![3.0, 3.0, 3.0, 1.0];
        assert_eq!(assign_layers(&costs, 2), assign_layers(&costs, 2));
    }

    #[test]
    fn more_ranks_than_layers_is_fine() {
        let owners = assign_layers(&[5.0, 1.0], 8);
        assert!(owners.iter().all(|&o| o < 8));
        assert_ne!(owners[0], owners[1]);
    }

    /// Core distributed invariant: after every step, all ranks hold
    /// identical parameters, and those match a single-process run on the
    /// concatenated data.
    #[test]
    fn ranks_stay_synchronized_and_match_serial() {
        let ranks = 4;
        let steps = 5;
        let batch_per_rank = 8;
        let d = data::gaussian_blobs(320, 6, 3, 0.3, 11);

        // Serial reference: one process, the full batch.
        let serial_params = {
            let mut rng = Rng::new(99);
            let mut model = models::mlp(&[6, 16, 3], &mut rng);
            let mut kfac = Kfac::new(KfacConfig::default());
            for step in 0..steps {
                // Assemble the same global batch the ranks see.
                let mut x = Matrix::zeros(batch_per_rank * ranks, 6);
                let mut y = Vec::new();
                for r in 0..ranks {
                    let shard = d.shard(r, ranks);
                    let (xs, ys) = shard.batch(step, batch_per_rank);
                    for b in 0..batch_per_rank {
                        x.row_mut(r * batch_per_rank + b).copy_from_slice(xs.row(b));
                    }
                    y.extend(ys);
                }
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                kfac.step(&mut model);
                model.update_params(|p, g| p.axpy(-0.02, g));
            }
            model.layer(0).params().unwrap().clone()
        };

        let results = run_ranks(ranks, |comm| {
            let mut rng = Rng::new(99); // same init as serial
            let mut model = models::mlp(&[6, 16, 3], &mut rng);
            let shard = d.shard(comm.rank(), ranks);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            let nc = NoCompression;
            for step in 0..steps {
                let (x, y) = shard.batch(step, batch_per_rank);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                opt.step(comm, &mut model, &nc).unwrap();
                model.update_params(|p, g| p.axpy(-0.02, g));
            }
            model.layer(0).params().unwrap().clone()
        });

        for r in 1..ranks {
            assert!(
                results[0].max_diff(&results[r]) < 1e-5,
                "rank {r} diverged: {}",
                results[0].max_diff(&results[r])
            );
        }
        // Distributed covariances average per-shard covariances of equal-
        // sized batches = global covariance; gradients likewise. Allow
        // f32 collective-ordering noise.
        assert!(
            results[0].max_diff(&serial_params) < 5e-3,
            "distributed vs serial diff {}",
            results[0].max_diff(&serial_params)
        );
    }

    #[test]
    fn compressed_training_converges_and_reports_ratio() {
        let ranks = 4;
        let d = data::gaussian_blobs(320, 6, 3, 0.3, 13);
        let results = run_ranks(ranks, |comm| {
            let mut rng = Rng::new(5);
            let mut model = models::mlp(&[6, 64, 64, 3], &mut rng);
            let shard = d.shard(comm.rank(), ranks);
            let mut opt = DistKfac::new(
                DistKfacConfig {
                    kfac: KfacConfig {
                        damping: 0.1,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                7,
            );
            let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
            let mut last = StepStats::default();
            for step in 0..80 {
                let (x, y) = shard.batch(step, 16);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                last = opt.step(comm, &mut model, &compso).unwrap();
                model.update_params(|p, g| p.axpy(-0.005, g));
            }
            let logits = model.forward(&d.x, false);
            (accuracy(&logits, &d.y), last)
        });
        for (acc, _) in &results {
            assert!(*acc > 0.9, "accuracy {acc}");
        }
        // With 3 K-FAC layers over 4 ranks one rank owns nothing; judge
        // the compression ratio on the aggregate all-gather traffic.
        let original: u64 = results.iter().map(|(_, s)| s.gather_bytes_original).sum();
        let wire: u64 = results.iter().map(|(_, s)| s.gather_bytes_wire).sum();
        let ratio = original as f64 / wire as f64;
        assert!(ratio > 2.5, "gather compression ratio {ratio}");
    }

    #[test]
    fn compressed_ranks_stay_bit_identical() {
        // Compression is lossy but *deterministic and identical* across
        // ranks (same decompressed bytes everywhere), so replicas must not
        // drift.
        let ranks = 3;
        let d = data::gaussian_blobs(300, 6, 3, 0.3, 17);
        let results = run_ranks(ranks, |comm| {
            let mut rng = Rng::new(21);
            let mut model = models::mlp(&[6, 12, 3], &mut rng);
            let shard = d.shard(comm.rank(), ranks);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            let compso = ChunkedCompso::new(CompsoConfig::aggressive(1e-2));
            for step in 0..10 {
                let (x, y) = shard.batch(step, 8);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                opt.step(comm, &mut model, &compso).unwrap();
                model.update_params(|p, g| p.axpy(-0.02, g));
            }
            model.layer(0).params().unwrap().clone()
        });
        for r in 1..ranks {
            assert_eq!(results[0], results[r], "rank {r} drifted under compression");
        }
    }

    #[test]
    fn aggregation_factor_changes_wire_format_not_semantics() {
        let ranks = 2;
        let d = data::gaussian_blobs(200, 6, 3, 0.3, 19);
        let run = |aggregation: usize| {
            let d = d.clone();
            run_ranks(ranks, move |comm| {
                let mut rng = Rng::new(33);
                let mut model = models::mlp(&[6, 16, 16, 3], &mut rng);
                let shard = d.shard(comm.rank(), ranks);
                let mut opt = DistKfac::new(
                    DistKfacConfig {
                        aggregation,
                        ..Default::default()
                    },
                    7,
                );
                let nc = NoCompression;
                for step in 0..5 {
                    let (x, y) = shard.batch(step, 8);
                    let logits = model.forward(&x, true);
                    let (_, grad) = softmax_cross_entropy(&logits, &y);
                    model.backward(&grad);
                    opt.step(comm, &mut model, &nc).unwrap();
                    model.update_params(|p, g| p.axpy(-0.02, g));
                }
                model.layer(0).params().unwrap().clone()
            })
        };
        let a1 = run(1);
        let a4 = run(4);
        assert!(a1[0].max_diff(&a4[0]) < 1e-6, "aggregation changed results");
    }

    #[test]
    fn recorder_covers_step_with_subphases() {
        use compso_obs::{names, Recorder, StepReport};
        let ranks = 2;
        let d = data::gaussian_blobs(200, 6, 3, 0.3, 29);
        let rec = Recorder::enabled();
        let rec_ref = &rec;
        run_ranks(ranks, |comm| {
            let mut rng = Rng::new(55);
            let mut model = models::mlp(&[6, 16, 3], &mut rng);
            let shard = d.shard(comm.rank(), ranks);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            opt.set_recorder(rec_ref.clone());
            comm.set_recorder(rec_ref.clone());
            let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
            for step in 0..3 {
                let (x, y) = shard.batch(step, 8);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                opt.step(comm, &mut model, &compso).unwrap();
                model.update_params(|p, g| p.axpy(-0.02, g));
            }
        });
        let snap = rec.snapshot();
        // 2 ranks × 3 steps, every sub-phase timed each step.
        assert_eq!(snap.timers[names::KFAC_STEP].count, 6);
        for phase in compso_obs::STEP_PHASES {
            assert_eq!(snap.timers[*phase].count, 6, "{phase}");
        }
        // Sub-phases partition the step: fractions sum to ~1 and the
        // tracked phases cannot exceed the step wall time they nest in.
        let report = StepReport::from_snapshot(0, &snap);
        assert!((report.fraction_sum() - 1.0).abs() < 1e-9);
        let tracked: u64 = compso_obs::STEP_PHASES
            .iter()
            .map(|p| snap.timers[*p].total_ns)
            .sum();
        assert!(tracked <= snap.timers[names::KFAC_STEP].total_ns);
        // The compressor fed the same registry: live CR is available.
        assert!(report.ratio.is_some());
        // And the collectives recorded traffic underneath.
        assert!(snap.counter(names::COMM_BYTES_SENT) > 0);
    }

    #[test]
    fn bucketed_sync_matches_per_layer_sync_within_f32_tolerance() {
        // The semantic claim behind the step-2 bucketing: one fused
        // reduce over the owner-ordered concatenation leaves in a rank's
        // span what per-layer `allreduce_mean`s of its layers would, up
        // to f32 reduction order (a ring block is now an owner's whole
        // span, where the per-layer ring cuts each layer in `p`).
        let ranks = 3;
        let d = data::gaussian_blobs(120, 6, 3, 0.3, 61);
        let results = run_ranks(ranks, |comm| {
            let mut rng = Rng::new(62);
            // Four layers over three ranks: one span holds two layers.
            let mut model = models::mlp(&[6, 16, 16, 16, 3], &mut rng);
            let shard = d.shard(comm.rank(), ranks);
            let (x, y) = shard.batch(0, 8);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            let plan = opt.plan_for(comm, &model, &NoCompression).unwrap();
            assert!(plan.expected.iter().any(|layers| layers.len() == 2));
            let me = comm.rank();
            // Reference: per-layer collectives on clones, kept by the owner.
            let mut per_layer: Vec<f32> = Vec::new();
            for (&idx, &owner) in plan.layers.iter().zip(&plan.owners) {
                let mut g = model.layer(idx).grads().unwrap().clone();
                allreduce_mean(comm, g.as_mut_slice()).unwrap();
                if owner == me {
                    per_layer.extend_from_slice(g.as_slice());
                }
            }
            let mut stats = StepStats::default();
            opt.sync_gradients(comm, &model, &plan, &mut stats).unwrap();
            // The model still holds the local gradients.
            let untouched =
                (plan.layers.iter()).all(|&idx| model.layer(idx).grads().unwrap().max_abs() > 0.0);
            assert!(untouched);
            (per_layer, opt.fusion[plan.spans[me].clone()].to_vec())
        });
        for (reference, span) in &results {
            assert_eq!(reference.len(), span.len());
            for (a, b) in reference.iter().zip(span) {
                assert!(
                    (a - b).abs() <= 1e-6 + a.abs() * 1e-5,
                    "bucketed {b} vs per-layer {a}"
                );
            }
        }
    }

    #[test]
    fn grad_sync_issues_exactly_one_allreduce_per_step() {
        use compso_obs::{names, Recorder};
        let ranks = 2;
        let steps = 4;
        let d = data::gaussian_blobs(200, 6, 3, 0.3, 67);
        let rec = Recorder::enabled();
        let rec_ref = &rec;
        run_ranks(ranks, |comm| {
            let mut rng = Rng::new(68);
            let mut model = models::mlp(&[6, 16, 3], &mut rng);
            let shard = d.shard(comm.rank(), ranks);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            opt.set_recorder(rec_ref.clone());
            comm.set_recorder(rec_ref.clone());
            let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
            for step in 0..steps {
                let (x, y) = shard.batch(step, 8);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                opt.step(comm, &mut model, &compso).unwrap();
                model.update_params(|p, g| p.axpy(-0.02, g));
            }
        });
        let snap = rec.snapshot();
        // Per rank: exactly ONE gradient reduction per step (the step-2
        // bucket's owner-reduce, counted with the all-reduce it is half
        // of) plus ONE fused factor allreduce per refresh
        // period (the step-3 bucket, ⌈steps / eigen_refresh⌉ of them) —
        // regardless of how many K-FAC layers the model has.
        let syncs = steps.div_ceil(KfacConfig::default().eigen_refresh);
        let expected = (ranks * (steps + syncs)) as u64;
        assert_eq!(snap.counter(names::COMM_ALLREDUCE_CALLS), expected);
        assert_eq!(
            snap.counter(names::KFAC_FACTOR_SYNCS),
            (ranks * syncs) as u64
        );
        // The fused factor bucket actually moved bytes.
        assert!(snap.counter(names::KFAC_FACTOR_FUSED_BYTES) > 0);
        // One pipelined compressed all-gather per step completes the
        // picture; step 5 has no other collective.
        assert_eq!(
            snap.counter(names::COMM_PIPELINED_ALLGATHER_CALLS),
            (ranks * steps) as u64
        );
        assert_eq!(snap.counter(names::COMM_ALLGATHER_VAR_CALLS), 0);
        // The bucket flatten span precedes the reduce (1 per step; the
        // model is first written at install, so nothing is scattered back).
        assert_eq!(
            snap.timers[names::KFAC_BUCKET].count,
            (ranks * steps) as u64
        );
        // And the own-frame decode span (peers decode inside the
        // collective's deliver) ran once per step per rank.
        assert_eq!(
            snap.timers[names::KFAC_PEER_DECODE].count,
            (ranks * steps) as u64
        );
    }

    #[test]
    fn chunked_compressed_training_bit_identical_across_thread_counts() {
        // Full-stack determinism: DistKfac + ChunkedCompso must produce
        // bit-identical parameters on every rank no matter how many rayon
        // workers the chunk kernels fan out over, and the
        // LayerSchedule must be built exactly once per optimizer lifetime.
        let ranks = 3;
        let steps = 6;
        let d = data::gaussian_blobs(300, 6, 3, 0.3, 71);
        let run = |threads: usize| {
            let _guard = rayon::scoped_thread_override(threads);
            let d = d.clone();
            run_ranks(ranks, move |comm| {
                let mut rng = Rng::new(72);
                let mut model = models::mlp(&[6, 16, 16, 3], &mut rng);
                let shard = d.shard(comm.rank(), ranks);
                let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
                let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
                for step in 0..steps {
                    let (x, y) = shard.batch(step, 8);
                    let logits = model.forward(&x, true);
                    let (_, grad) = softmax_cross_entropy(&logits, &y);
                    model.backward(&grad);
                    opt.step(comm, &mut model, &compso).unwrap();
                    model.update_params(|p, g| p.axpy(-0.02, g));
                }
                let params: Vec<Matrix> = (0..model.len())
                    .filter_map(|i| model.layer(i).params().cloned())
                    .collect();
                (params, opt.schedule_builds())
            })
        };
        let single = run(1);
        for &threads in &[2usize, 4] {
            let multi = run(threads);
            for (r, ((p1, b1), (pn, bn))) in single.iter().zip(&multi).enumerate() {
                assert_eq!(b1, bn);
                assert_eq!(*bn, 1, "schedule rebuilt on rank {r}");
                assert_eq!(
                    p1, pn,
                    "rank {r} params differ between 1 and {threads} threads"
                );
            }
        }
        // Ranks agree among themselves too.
        for r in 1..ranks {
            assert_eq!(single[0].0, single[r].0, "rank {r} drifted");
        }
    }

    #[test]
    fn schedule_cache_is_built_once_and_only_for_chunked_compressors() {
        let ranks = 2;
        let d = data::gaussian_blobs(160, 6, 3, 0.3, 73);
        let run = |use_chunked: bool| {
            let d = d.clone();
            run_ranks(ranks, move |comm| {
                let mut rng = Rng::new(74);
                let mut model = models::mlp(&[6, 16, 3], &mut rng);
                let shard = d.shard(comm.rank(), ranks);
                let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
                let chunked = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
                let qsgd = compso_core::baselines::Qsgd { bits: 8 };
                let compressor: &dyn compso_core::Compressor =
                    if use_chunked { &chunked } else { &qsgd };
                for step in 0..5 {
                    let (x, y) = shard.batch(step, 8);
                    let logits = model.forward(&x, true);
                    let (_, grad) = softmax_cross_entropy(&logits, &y);
                    model.backward(&grad);
                    opt.step(comm, &mut model, compressor).unwrap();
                    model.update_params(|p, g| p.axpy(-0.02, g));
                }
                opt.schedule_builds()
            })
        };
        for builds in run(true) {
            assert_eq!(builds, 1, "chunked compressor: schedule built once");
        }
        for builds in run(false) {
            assert_eq!(builds, 0, "a per-layer family needs no schedule");
        }
    }

    #[test]
    fn chunked_compressed_training_converges_and_compresses() {
        // ChunkedCompso as the production compressor: ranks stay
        // bit-identical, the model trains, and the wire is smaller.
        let ranks = 3;
        let d = data::gaussian_blobs(300, 6, 3, 0.3, 77);
        let results = run_ranks(ranks, |comm| {
            let mut rng = Rng::new(78);
            let mut model = models::mlp(&[6, 32, 3], &mut rng);
            let shard = d.shard(comm.rank(), ranks);
            let mut opt = DistKfac::new(
                DistKfacConfig {
                    kfac: KfacConfig {
                        damping: 0.1,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                7,
            );
            let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
            let mut last = StepStats::default();
            for step in 0..60 {
                let (x, y) = shard.batch(step, 16);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                last = opt.step(comm, &mut model, &compso).unwrap();
                model.update_params(|p, g| p.axpy(-0.01, g));
            }
            let logits = model.forward(&d.x, false);
            (
                accuracy(&logits, &d.y),
                last,
                model.layer(0).params().unwrap().clone(),
            )
        });
        for r in 1..ranks {
            assert_eq!(results[0].2, results[r].2, "rank {r} drifted");
        }
        for (acc, _, _) in &results {
            assert!(*acc > 0.85, "accuracy {acc}");
        }
        let original: u64 = results
            .iter()
            .map(|(_, s, _)| s.gather_bytes_original)
            .sum();
        let wire: u64 = results.iter().map(|(_, s, _)| s.gather_bytes_wire).sum();
        assert!(
            (original as f64) / (wire as f64) > 1.5,
            "chunked gather ratio {original}/{wire}"
        );
    }

    #[test]
    fn step_stats_account_traffic() {
        let d = data::gaussian_blobs(100, 6, 3, 0.3, 23);
        let results = run_ranks(2, |comm| {
            let mut rng = Rng::new(44);
            let mut model = models::mlp(&[6, 8, 3], &mut rng);
            let shard = d.shard(comm.rank(), 2);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            let nc = NoCompression;
            let (x, y) = shard.batch(0, 8);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            opt.step(comm, &mut model, &nc).unwrap()
        });
        // Step-2 gradient bucket: two linear layers, (6+1)*8 + (8+1)*3 =
        // 83 params -> 332 bytes. Step-3 fused factor bucket: the packed
        // upper triangles, n(n+1)/2 per factor with a_cov (in+1)-dim and
        // g_cov out-dim per layer, 28 + 36 + 45 + 6 = 115 floats -> 460
        // bytes (the full squares would be 812). Total allreduced per
        // rank per step: 792 bytes.
        for s in &results {
            assert_eq!(s.allreduce_bytes, 332 + 460);
            assert!(s.gather_bytes_original > 0);
            // NoCompression wire size ≈ original + headers.
            assert!(s.gather_bytes_wire >= s.gather_bytes_original);
        }
        // Every layer is owned exactly once across ranks.
        let total_original: u64 = results.iter().map(|s| s.gather_bytes_original).sum();
        assert_eq!(total_original, 332);
    }

    #[test]
    fn run_decoder_rejects_every_prefix_mutation_and_trailing_byte() {
        // Two groups of two layers: the unit a ring slot carries when
        // `pipeline_gather` is off, and the ladder's rung-1 body.
        let mut rng = Rng::new(5);
        let layers: Vec<(usize, Matrix)> =
            [(0usize, 3usize, 4usize), (2, 4, 2), (5, 2, 2), (7, 1, 6)]
                .iter()
                .map(|&(idx, r, c)| (idx, Matrix::random_normal(r, c, &mut rng)))
                .collect();
        let expected: Vec<LayerShape> = layers
            .iter()
            .map(|(idx, m)| (*idx, m.rows(), m.cols()))
            .collect();
        let (m, rec) = (2, Recorder::disabled());
        let decode = |bytes: &[u8]| decode_run(bytes, &expected, m, &NoCompression, &rec);
        let run = encode_run(&layers, m, &[], &NoCompression, &mut rng, &rec);
        assert_eq!(framed_len(&run).map(|len| len < run.len()), Some(true));
        assert_eq!(decode(&run).expect("clean run decodes"), layers);
        for cut in 0..run.len() {
            assert!(decode(&run[..cut]).is_err(), "prefix of {cut} bytes");
        }
        let mut hostile = run.clone();
        for i in 0..run.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                hostile[i] ^= flip;
                assert!(decode(&hostile).is_err(), "byte {i} ^ {flip:#x}");
                hostile[i] ^= flip;
            }
        }
        hostile.push(0);
        assert!(decode(&hostile).is_err(), "trailing byte");
    }

    #[test]
    fn fused_factor_sync_matches_per_layer_sync_within_f32_tolerance() {
        // Per-factor allreduce_mean of the full squares is the semantic
        // reference for the packed, fused step-3 bucket. At 2 ranks the
        // ring sum has two terms, so it is commutative and the fused
        // values must be BIT-equal wherever a block boundary falls; at 4
        // ranks the boundaries move each value's reduction order, so
        // only f32 tolerance holds there.
        for ranks in [2usize, 4] {
            let results = run_ranks(ranks, |comm| {
                let mut rng = Rng::new(900 + comm.rank() as u64);
                // Heterogeneous symmetric factors, different on every rank.
                let factors: Vec<Matrix> = [7usize, 8, 9, 3]
                    .iter()
                    .map(|&n| covariance(&Matrix::random_normal(12, n, &mut rng)))
                    .collect();
                let mut per_factor = factors.clone();
                for f in &mut per_factor {
                    allreduce_mean(comm, f.as_mut_slice()).unwrap();
                }
                let mut fused: Vec<f32> = Vec::new();
                for f in &factors {
                    f.pack_upper(&mut fused);
                }
                allreduce_mean(comm, &mut fused).unwrap();
                let mut unpacked = factors;
                let mut off = 0;
                for f in &mut unpacked {
                    off += f.unpack_upper(&fused[off..]);
                    assert_eq!(f.asymmetry(), 0.0);
                }
                (per_factor, unpacked)
            });
            for (per_factor, unpacked) in &results {
                for (reference, got) in per_factor.iter().zip(unpacked) {
                    for (a, b) in reference.as_slice().iter().zip(got.as_slice()) {
                        if ranks == 2 {
                            assert_eq!(a.to_bits(), b.to_bits(), "fused {b} vs per-factor {a}");
                        } else {
                            assert!(
                                (a - b).abs() <= 1e-6 + a.abs() * 1e-5,
                                "fused factor {b} vs per-factor {a}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// One training step of the shared test loop.
    fn train_step(
        comm: &mut Communicator,
        opt: &mut DistKfac,
        model: &mut Sequential,
        x: &Matrix,
        y: &[usize],
    ) -> Result<StepStats, CommError> {
        let logits = model.forward(x, true);
        let (_, grad) = softmax_cross_entropy(&logits, y);
        model.backward(&grad);
        let stats = opt.step_elastic(comm, model, &NoCompression)?;
        model.update_params(|p, g| p.axpy(-0.02, g));
        Ok(stats)
    }

    /// Whether rank `me` holds an inverse for every layer it owns.
    fn owned_have_inverses(opt: &DistKfac, model: &Sequential, me: usize) -> bool {
        model
            .kfac_indices()
            .iter()
            .zip(opt.owners().unwrap())
            .filter(|(_, &o)| o == me)
            .all(|(&idx, _)| opt.kfac().has_inverse(idx))
    }

    #[test]
    fn ownership_bounds_the_inverse_work_at_1_2_4_ranks() {
        use compso_obs::StepReport;
        // Two refresh periods (steps 0 and 3 of 6): every layer is
        // decomposed (A and G) exactly once per refresh *group-wide*, by
        // its owner — not once per rank.
        let (steps, refreshes) = (6, 2u64);
        let d = data::gaussian_blobs(240, 6, 3, 0.3, 101);
        for ranks in [1usize, 2, 4] {
            let results = run_ranks(ranks, |comm| {
                let mut rng = Rng::new(102);
                let mut model = models::mlp(&[6, 16, 16, 3], &mut rng);
                let shard = d.shard(comm.rank(), ranks);
                let config = DistKfacConfig {
                    kfac: KfacConfig {
                        eigen_refresh: 3,
                        ..KfacConfig::default()
                    },
                    ..DistKfacConfig::default()
                };
                let mut opt = DistKfac::new(config, 7);
                let rec = Recorder::enabled();
                opt.set_recorder(rec.clone());
                for step in 0..steps {
                    let (x, y) = shard.batch(step, 8);
                    train_step(comm, &mut opt, &mut model, &x, &y).unwrap();
                }
                let report = StepReport::from_snapshot(0, &rec.snapshot());
                let holds: Vec<bool> = model
                    .kfac_indices()
                    .iter()
                    .map(|&idx| opt.kfac().has_inverse(idx))
                    .collect();
                let owners = opt.owners().unwrap().to_vec();
                (comm.rank(), report.inverse_refreshes, owners, holds)
            });
            let layers = results[0].2.len() as u64;
            let total: u64 = results.iter().map(|r| r.1).sum();
            assert_eq!(total, 2 * layers * refreshes, "{ranks} ranks");
            for (me, mine, owners, holds) in &results {
                let owned = owners.iter().filter(|&&o| o == *me).count() as u64;
                assert_eq!(*mine, 2 * owned * refreshes, "rank {me}/{ranks}");
                // A rank holds an inverse for exactly the layers it owns.
                for (pos, &o) in owners.iter().enumerate() {
                    assert_eq!(holds[pos], o == *me, "rank {me}/{ranks} layer {pos}");
                }
            }
        }
    }

    #[test]
    fn adopting_owner_refreshes_after_an_elastic_shrink() {
        use compso_comm::{run_ranks_elastic, CommConfig, FaultConfig, FaultPlane};
        // Rank 1 (owner of one of the three layers) crashes at the top
        // of step 2, between refreshes. The survivors shrink 4→3 and
        // reshard: two layers land on ranks that hold no inverse for
        // them, which must decompose them on adoption (2 × 2) rather
        // than precondition with nothing; the third keeps its owner.
        let steps = 5u64;
        let plane = FaultPlane::new(FaultConfig {
            crash_at: Some((1, 2)),
            ..FaultConfig::default()
        });
        let d = data::gaussian_blobs(320, 6, 3, 0.3, 103);
        let results = run_ranks_elastic(4, plane, CommConfig::default(), |comm, revived| {
            if revived {
                return None; // stays out of the group
            }
            let mut rng = Rng::new(104);
            let mut model = models::mlp(&[6, 16, 16, 3], &mut rng);
            let shard = d.shard(comm.phys_rank(), 4);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            let rec = Recorder::enabled();
            opt.set_recorder(rec.clone());
            let mut before_crash = 0;
            while comm.current_step() < steps {
                if comm.current_step() == 2 {
                    before_crash = rec.snapshot().counter(names::KFAC_INVERSE_REFRESHES);
                }
                let (x, y) = shard.batch(comm.current_step() as usize, 8);
                train_step(comm, &mut opt, &mut model, &x, &y).unwrap();
            }
            let owned_have_inverses = owned_have_inverses(&opt, &model, comm.rank());
            let adopted = rec.snapshot().counter(names::KFAC_INVERSE_REFRESHES) - before_crash;
            let params: Vec<Matrix> = (0..model.len())
                .filter_map(|i| model.layer(i).params().cloned())
                .collect();
            Some((
                before_crash,
                adopted,
                owned_have_inverses,
                comm.size(),
                params,
            ))
        });
        let survivors: Vec<_> = results.into_iter().flatten().flatten().collect();
        assert_eq!(survivors.len(), 3);
        // Step 0 decomposed the three layers on ranks 0–2 (rank 3 owned
        // nothing); rank 1's share died with it.
        assert_eq!(survivors.iter().map(|s| s.0).sum::<u64>(), 2 * 2);
        assert_eq!(survivors.iter().map(|s| s.1).sum::<u64>(), 2 * 2);
        for s in &survivors {
            assert!(s.2, "an owner is missing an inverse after the reshard");
            assert_eq!(s.3, 3);
            assert_eq!(s.4, survivors[0].4, "replica diverged across the shrink");
        }
    }

    #[test]
    fn poisoned_statistics_keep_the_previous_inverse_and_replicas_equal() {
        // A NaN input on one rank poisons the first layer's all-reduced
        // `A` factor on a refresh step (the ReLU swallows it before the
        // second layer). `step` must return (sym_eig used to panic
        // sorting NaN eigenvalues), the poisoned layer's owner keeps the
        // inverse it had, and — the caller skipping the non-finite
        // update, as a loss scaler would — training continues
        // replica-equal.
        let d = data::gaussian_blobs(200, 6, 3, 0.3, 105);
        let results = run_ranks(2, |comm| {
            let mut rng = Rng::new(106);
            let mut model = models::mlp(&[6, 16, 3], &mut rng);
            let shard = d.shard(comm.rank(), 2);
            let config = DistKfacConfig {
                kfac: KfacConfig {
                    eigen_refresh: 2,
                    ..KfacConfig::default()
                },
                ..DistKfacConfig::default()
            };
            let mut opt = DistKfac::new(config, 7);
            let rec = Recorder::enabled();
            opt.set_recorder(rec.clone());
            let nc = NoCompression;
            let mut refreshes = Vec::new();
            for step in 0..5 {
                let (mut x, y) = shard.batch(step, 8);
                let poisoned = step == 2;
                if poisoned && comm.rank() == 0 {
                    x.set(0, 0, f32::NAN);
                }
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                opt.step(comm, &mut model, &nc).expect("step is total");
                if !poisoned {
                    model.update_params(|p, g| p.axpy(-0.02, g));
                }
                refreshes.push(rec.snapshot().counter(names::KFAC_INVERSE_REFRESHES));
            }
            let me = comm.rank();
            let (a0, _) = opt.kfac().factors(model.kfac_indices()[0]).unwrap();
            assert!(a0.as_slice().iter().any(|v| v.is_nan()), "poison missed");
            let owners = opt.owners().unwrap();
            let owned_have_inverses = owned_have_inverses(&opt, &model, me);
            let params: Vec<Matrix> = (0..model.len())
                .filter_map(|i| model.layer(i).params().cloned())
                .collect();
            (owners[0] == me, refreshes, owned_have_inverses, params)
        });
        for (owns_poisoned, refreshes, owned_have_inverses, params) in &results {
            // One owned layer per rank, refreshes due at steps 0, 2, 4.
            // The poisoned layer's running factor stays NaN, so its owner
            // decomposes at step 0 only and keeps that inverse.
            let expect: [u64; 5] = if *owns_poisoned {
                [2, 2, 2, 2, 2]
            } else {
                [2, 2, 4, 4, 6]
            };
            assert_eq!(refreshes, &expect);
            assert!(owned_have_inverses);
            assert!(params
                .iter()
                .all(|p| p.as_slice().iter().all(|v| v.is_finite())));
            assert_eq!(params, &results[0].3, "replicas diverged");
        }
    }
}
