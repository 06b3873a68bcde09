//! Block-selection filters: the first stage of every query (§IV-A).
//!
//! A query against the S³ structure proceeds in two steps: a *filtering* step
//! that selects a set of p-blocks (curve intervals) worth scanning, and a
//! *refinement* step that scans them. This module implements the filtering
//! step in three flavours:
//!
//! * [`select_blocks_best_first`] — exact computation of the paper's
//!   `B_α^min`: the minimum-cardinality block set whose total distortion mass
//!   reaches α. A best-first (Dijkstra-style) descent of the binary p-block
//!   tree pops blocks in strictly non-increasing mass order, because a child's
//!   box is contained in its parent's, so a parent's mass upper-bounds every
//!   descendant's. It needs no threshold iteration.
//! * [`select_blocks_threshold`] — the paper's formulation (eq. 3–4): find
//!   `t_max` such that `B(t) = {blocks with mass > t}` has `P_sup(t) ≥ α`
//!   with minimal cardinality, by monotone bisection on `t`, each evaluation
//!   being a pruned depth-first traversal. Kept both as a faithful baseline
//!   and as an ablation target; it selects the same blocks as best-first up
//!   to mass ties.
//! * [`select_blocks_range`] — the geometric filter of a classical ε-range
//!   query: keep every depth-p block whose box intersects the query ball.
//!   This is the comparison baseline of Fig. 5/6.
//!
//! Masses use the continuous relaxation of the integer grid: a block covering
//! integer coordinates `[lo, hi)` along a dimension is scored with the
//! interval `[lo - 0.5, hi - 0.5)`, so sibling masses sum exactly to their
//! parent's and the whole partition sums to the mass of the byte cube.
//!
//! The crate's query engines never call these filters directly: they go
//! through the plan stage at the bottom of this module (`plan` for one
//! query, `plan_batch` for a batch), which dispatches the algorithm, keeps
//! the per-query mass cache on, polls the query's context and merges the
//! selected blocks into key ranges. The `*_uncached` entry points remain
//! only as the reference the property tests and `bench_kernels` compare
//! the cached filters against.

use crate::distortion::DistortionModel;
use crate::error::IndexError;
use crate::index::{FilterAlgo, Match, QueryStats, Refine, StatQueryOpts};
use crate::metrics::CoreMetrics;
use crate::resilience::{CancelCause, QueryCtx};
use s3_hilbert::{Block, HilbertCurve, KeyRange};
use s3_obs::{span, BlockExplain, ExplainPhase, ExplainReport, Span};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// A block selected by a filter, with its distortion mass for the query.
#[derive(Clone, Copy, Debug)]
pub struct ScoredBlock {
    /// The selected p-block.
    pub block: Block,
    /// Its probability mass `∫_block p_ΔS(X − Q) dX` (or min-distance² for
    /// the geometric filter, see [`select_blocks_range`]).
    pub score: f64,
}

/// Outcome of a filtering step.
#[derive(Clone, Debug)]
pub struct FilterOutcome {
    /// Selected blocks (unordered).
    pub blocks: Vec<ScoredBlock>,
    /// Total probability mass captured (meaningless for the geometric filter).
    pub mass: f64,
    /// Number of tree nodes expanded (filter work measure, `T_f` proxy).
    pub nodes_expanded: usize,
    /// The threshold `t_max` found (threshold filter only).
    pub tmax: Option<f64>,
    /// Bisection iterations spent locating `t_max` (threshold filter only;
    /// 0 for the other algorithms).
    pub iterations: u32,
    /// Which filter algorithm produced this outcome (stamped at the
    /// instrumented return site; `""` only for hand-built outcomes).
    pub algo: &'static str,
    /// True if the block budget truncated the selection before reaching α.
    pub truncated: bool,
}

/// Bumps the per-algorithm filter counters, stamps the algorithm name into
/// the outcome and returns it — applied at every filter's return site so
/// block selection is measured no matter which query engine invoked it.
fn observed(mut outcome: FilterOutcome, algo: &'static str) -> FilterOutcome {
    let r = s3_obs::registry();
    r.counter_with("filter.runs", Some(("algo", algo))).inc();
    r.counter("filter.nodes_expanded")
        .add(outcome.nodes_expanded as u64);
    r.counter("filter.blocks_selected")
        .add(outcome.blocks.len() as u64);
    outcome.algo = algo;
    outcome
}

/// Per-dimension block mass under the model, centred on the query.
#[inline]
fn dim_factor(model: &dyn DistortionModel, q: &[f64], block: &Block, dim: usize) -> f64 {
    let (lo, hi) = block.dim_bounds(dim);
    model.component_mass(
        dim,
        f64::from(lo) - 0.5 - q[dim],
        f64::from(hi) - 0.5 - q[dim],
    )
}

/// Full block mass (product over dimensions). Production paths go through
/// [`MassCache::factor`]; tests use this as the uncached reference.
#[cfg(test)]
fn block_mass(model: &dyn DistortionModel, q: &[f64], block: &Block) -> f64 {
    (0..model.dims())
        .map(|d| dim_factor(model, q, block, d))
        .product()
}

/// Deepest per-axis level whose memo table is worth allocating (`2^16`
/// entries). Byte fingerprints (order 8) never get near it; it only guards
/// against pathological high-order curves.
const MAX_CACHED_LEVEL: usize = 16;

/// Per-query memo of per-axis component masses.
///
/// Every block the filters score is an axis-aligned dyadic box: along axis
/// `d` it covers `[k·2^e, (k+1)·2^e)` with `e = extent_log2(d)`, so its
/// per-axis factor is identified by `(axis, level, k)` with
/// `level = order − e`. A partition-tree descent revisits the same
/// intervals constantly — a node's factor along every *unsplit* axis equals
/// its parent's — so memoizing turns the dominant cost of block selection
/// (repeated `erf`-based `component_mass` integrations) into table lookups.
///
/// **Bit-identical by construction**: a miss performs the exact same
/// [`dim_factor`] call the uncached path would, and a hit returns that
/// stored `f64` unchanged, so cached selection yields byte-identical
/// [`FilterOutcome`]s (property-tested in `tests/properties.rs`).
struct MassCache {
    order: u32,
    /// `tables[axis · (order+1) + level]`, lazily grown to `2^level`
    /// entries; NaN marks "not yet computed" (`component_mass` of a real
    /// interval is never NaN; a NaN-producing model just recomputes).
    tables: Vec<Vec<f64>>,
    hits: u64,
    misses: u64,
}

impl MassCache {
    fn new(dims: usize, order: u32) -> MassCache {
        MassCache {
            order,
            tables: vec![Vec::new(); dims * (order as usize + 1)],
            hits: 0,
            misses: 0,
        }
    }

    /// Memoized [`dim_factor`].
    fn factor(&mut self, model: &dyn DistortionModel, q: &[f64], block: &Block, dim: usize) -> f64 {
        let ext = block.extent_log2(dim);
        let level = (self.order - ext) as usize;
        if level > MAX_CACHED_LEVEL {
            self.misses += 1;
            return dim_factor(model, q, block, dim);
        }
        let k = (block.lo()[dim] >> ext) as usize;
        let table = &mut self.tables[dim * (self.order as usize + 1) + level];
        if table.is_empty() {
            table.resize(1usize << level, f64::NAN);
        }
        let v = table[k];
        if !v.is_nan() {
            self.hits += 1;
            return v;
        }
        self.misses += 1;
        let m = dim_factor(model, q, block, dim);
        table[k] = m;
        m
    }

    /// Folds the hit/miss tallies into the registry (one batch of atomic
    /// adds per selection instead of two per lookup).
    fn publish(&self) {
        let m = CoreMetrics::get();
        m.mass_cache_hits.add(self.hits);
        m.mass_cache_misses.add(self.misses);
    }
}

/// Shared argument validation of the statistical filters.
fn check_stat_args(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    depth: u32,
    alpha: f64,
) {
    assert_eq!(q.len(), curve.dims(), "query dimension mismatch");
    assert_eq!(model.dims(), curve.dims(), "model dimension mismatch");
    assert!(
        depth >= 1 && depth <= curve.key_bits(),
        "depth out of range"
    );
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
}

/// Converts a byte query to centred f64 coordinates.
pub(crate) fn query_coords(q: &[u8]) -> Vec<f64> {
    q.iter().map(|&c| f64::from(c)).collect()
}

/// Max-heap entry of the best-first descent: a block's mass and the arena
/// slot holding the block itself. Sift steps move these 16-byte entries
/// while the blocks (~190 bytes each) stay put in the arena.
#[derive(Debug)]
struct HeapNode {
    mass: f64,
    slot: usize,
}

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.mass == other.mass
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by mass alone; masses are finite non-negative by
        // construction. The slot never takes part: `BinaryHeap`'s sift
        // sequence depends only on comparison results, so pop and tie order
        // are those of a heap holding the blocks inline.
        self.mass
            .partial_cmp(&other.mass)
            .unwrap_or(Ordering::Equal)
    }
}

/// Computes `B_α^min` exactly by best-first descent.
///
/// * `q` — query fingerprint;
/// * `depth` — partition depth `p`;
/// * `alpha` — target expectation in `(0, 1]`;
/// * `max_blocks` — hard budget on selected blocks; when hit, the outcome is
///   flagged [`FilterOutcome::truncated`].
pub fn select_blocks_best_first(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    depth: u32,
    alpha: f64,
    max_blocks: usize,
) -> FilterOutcome {
    let opts = StatQueryOpts {
        max_blocks,
        ..StatQueryOpts::new(alpha, depth)
    };
    select_cached(curve, model, q, &opts, None)
}

/// The statistical filter every query engine runs: `opts.algo` over the
/// per-query [`MassCache`], polling `ctx` when given. A stopped selection
/// returns the blocks chosen so far with [`FilterOutcome::truncated`] set —
/// a valid (partial) selection, exact over the mass it did capture.
fn select_cached(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    opts: &StatQueryOpts,
    ctx: Option<&QueryCtx>,
) -> FilterOutcome {
    let (depth, alpha, max_blocks) = (opts.depth, opts.alpha, opts.max_blocks);
    check_stat_args(curve, model, q, depth, alpha);
    let qf = query_coords(q);
    // One cache per query, shared by every bisection iteration of the
    // threshold filter: each pruned DFS revisits mostly the same
    // intervals, so iterations beyond the first integrate almost nothing new.
    let mut cache = MassCache::new(curve.dims(), curve.order() as u32);
    let factor = &mut |b: &Block, d| cache.factor(model, &qf, b, d);
    let (out, name) = match opts.algo {
        FilterAlgo::BestFirst => (
            best_first_impl(curve, depth, alpha, max_blocks, ctx, factor),
            "best_first",
        ),
        FilterAlgo::Threshold { iterations } => {
            assert!(iterations > 0);
            let out = threshold_impl(curve, depth, alpha, max_blocks, iterations, ctx, factor);
            (out, "threshold")
        }
    };
    cache.publish();
    observed(out, name)
}

/// [`select_blocks_best_first`] without the per-query mass cache — every
/// factor is re-integrated, exactly as before the cache existed. Kept as
/// the equivalence baseline for tests and `bench_kernels`; the cached path
/// returns byte-identical outcomes.
pub fn select_blocks_best_first_uncached(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    depth: u32,
    alpha: f64,
    max_blocks: usize,
) -> FilterOutcome {
    check_stat_args(curve, model, q, depth, alpha);
    let qf = query_coords(q);
    let out = best_first_impl(curve, depth, alpha, max_blocks, None, &mut |b, d| {
        dim_factor(model, &qf, b, d)
    });
    observed(out, "best_first_uncached")
}

/// Best-first descent parameterized over the per-axis factor source (the
/// cached/uncached split of the public wrappers).
fn best_first_impl(
    curve: &HilbertCurve,
    depth: u32,
    alpha: f64,
    max_blocks: usize,
    ctx: Option<&QueryCtx>,
    factor: &mut dyn FnMut(&Block, usize) -> f64,
) -> FilterOutcome {
    let root = Block::root(curve);
    let root_mass: f64 = (0..curve.dims()).map(|d| factor(&root, d)).product();
    // For queries near the boundary of the byte cube, part of the distortion
    // mass falls outside the grid; the achievable expectation is capped by
    // the root mass. Clamp α so such queries terminate with the best
    // achievable coverage instead of exhausting the whole partition.
    let alpha = alpha.min(root_mass * (1.0 - 1e-9));
    // Blocks live in `arena`; the heap orders their slots. A popped slot
    // goes on `free` and is reused by the next child, so the arena never
    // holds more blocks than the heap has entries at its deepest.
    let mut arena = Vec::with_capacity(1024);
    let mut free = Vec::new();
    let mut heap = BinaryHeap::with_capacity(1024);
    arena.push(root);
    heap.push(HeapNode {
        mass: root_mass,
        slot: 0,
    });

    let mut out = Vec::new();
    let mut acc = 0.0;
    let mut nodes = 0usize;
    let mut truncated = false;
    let mut since_check = 0usize;

    while let Some(HeapNode { mass, slot }) = heap.pop() {
        if mass <= 0.0 {
            break; // everything left is massless
        }
        if let Some(ctx) = ctx {
            since_check += 1;
            if since_check >= 32 {
                since_check = 0;
                if ctx.should_stop() {
                    truncated = true;
                    break;
                }
            }
        }
        free.push(slot);
        let block = &arena[slot];
        if block.depth() == depth {
            out.push(ScoredBlock {
                block: *block,
                score: mass,
            });
            acc += mass;
            if acc >= alpha {
                break;
            }
            if out.len() >= max_blocks {
                truncated = true;
                break;
            }
            continue;
        }
        nodes += 1;
        let axis = block.next_split_axis(curve);
        let parent_factor = factor(block, axis);
        let children = block.split(curve);
        for child in children {
            let child_mass = if parent_factor > 0.0 {
                mass / parent_factor * factor(&child, axis)
            } else {
                0.0
            };
            if child_mass > 0.0 {
                let slot = match free.pop() {
                    Some(s) => {
                        arena[s] = child;
                        s
                    }
                    None => {
                        arena.push(child);
                        arena.len() - 1
                    }
                };
                heap.push(HeapNode {
                    mass: child_mass,
                    slot,
                });
            }
        }
    }

    FilterOutcome {
        blocks: out,
        mass: acc,
        nodes_expanded: nodes,
        tmax: None,
        iterations: 0,
        algo: "",
        truncated,
    }
}

/// Result of one pruned DFS evaluation of `B(t)`.
struct ThresholdEval {
    blocks: Vec<ScoredBlock>,
    psup: f64,
    nodes: usize,
    overflowed: bool,
}

/// Collects `B(t)`: all depth-p blocks with mass strictly greater than `t`.
fn collect_above(
    curve: &HilbertCurve,
    dims: usize,
    depth: u32,
    t: f64,
    max_blocks: usize,
    factor: &mut dyn FnMut(&Block, usize) -> f64,
) -> ThresholdEval {
    let root = Block::root(curve);
    let root_mass: f64 = (0..dims).map(|d| factor(&root, d)).product();
    let mut eval = ThresholdEval {
        blocks: Vec::new(),
        psup: 0.0,
        nodes: 0,
        overflowed: false,
    };
    // Iterative DFS; a parent's mass bounds its children's, so `mass <= t`
    // prunes the whole subtree exactly.
    let mut stack = vec![(root, root_mass)];
    while let Some((block, mass)) = stack.pop() {
        if mass <= t {
            continue;
        }
        if block.depth() == depth {
            eval.psup += mass;
            if eval.blocks.len() >= max_blocks {
                eval.overflowed = true;
                // Keep accumulating psup (cheap) but stop storing blocks.
                continue;
            }
            eval.blocks.push(ScoredBlock { block, score: mass });
            continue;
        }
        eval.nodes += 1;
        let axis = block.next_split_axis(curve);
        let parent_factor = factor(&block, axis);
        for child in block.split(curve) {
            let m = if parent_factor > 0.0 {
                mass / parent_factor * factor(&child, axis)
            } else {
                0.0
            };
            stack.push((child, m));
        }
    }
    eval
}

/// The paper's threshold filter (eq. 3–4): finds `t_max` with
/// `P_sup(t_max) ≥ α` and `P_sup(t) < α` for `t > t_max`, by bisection on the
/// non-increasing `P_sup(t)`, then returns `B(t_max)`.
///
/// `iterations` bisection steps are performed (the paper uses "a method
/// inspired by Newton-Raphson"; monotone bisection is equally effective and
/// unconditionally convergent). Typical values: 20–30.
pub fn select_blocks_threshold(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    depth: u32,
    alpha: f64,
    max_blocks: usize,
    iterations: usize,
) -> FilterOutcome {
    let opts = StatQueryOpts {
        max_blocks,
        algo: FilterAlgo::Threshold { iterations },
        ..StatQueryOpts::new(alpha, depth)
    };
    select_cached(curve, model, q, &opts, None)
}

/// [`select_blocks_threshold`] without the mass cache (see
/// [`select_blocks_best_first_uncached`]).
pub fn select_blocks_threshold_uncached(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    depth: u32,
    alpha: f64,
    max_blocks: usize,
    iterations: usize,
) -> FilterOutcome {
    check_stat_args(curve, model, q, depth, alpha);
    assert!(iterations > 0);
    let qf = query_coords(q);
    let out = threshold_impl(
        curve,
        depth,
        alpha,
        max_blocks,
        iterations,
        None,
        &mut |b, d| dim_factor(model, &qf, b, d),
    );
    observed(out, "threshold_uncached")
}

/// Bisection on `t` parameterized over the per-axis factor source. With a
/// `ctx`, the stop is polled between bisection steps: a stopped search
/// keeps the best feasible `B(t)` found so far (none: an empty selection),
/// flagged truncated.
fn threshold_impl(
    curve: &HilbertCurve,
    depth: u32,
    alpha: f64,
    max_blocks: usize,
    iterations: usize,
    ctx: Option<&QueryCtx>,
    factor: &mut dyn FnMut(&Block, usize) -> f64,
) -> FilterOutcome {
    let dims = curve.dims();
    let root = Block::root(curve);
    let root_mass: f64 = (0..dims).map(|d| factor(&root, d)).product();
    // Same boundary clamp as the best-first filter (see there).
    let alpha = alpha.min(root_mass * (1.0 - 1e-9));

    // Bracket: Psup(0) = root mass (all blocks kept), Psup(root_mass) = 0.
    let mut lo = 0.0f64;
    let mut hi = root_mass;
    let mut nodes_total = 0usize;
    let mut best: Option<ThresholdEval> = None;
    let mut tmax = 0.0f64;
    let mut stopped = false;

    for _ in 0..iterations {
        if ctx.is_some_and(QueryCtx::should_stop) {
            stopped = true;
            break;
        }
        let t = 0.5 * (lo + hi);
        let eval = collect_above(curve, dims, depth, t, max_blocks, factor);
        nodes_total += eval.nodes;
        let satisfied = eval.psup >= alpha && !eval.overflowed;
        if satisfied {
            // t is feasible: try a larger threshold (fewer blocks).
            tmax = t;
            best = Some(eval);
            lo = t;
        } else if eval.overflowed {
            // Too many blocks even to store: raise the threshold.
            lo = t;
        } else {
            hi = t;
        }
    }

    let best = match best {
        Some(eval) => eval,
        None if stopped => ThresholdEval {
            blocks: Vec::new(),
            psup: 0.0,
            nodes: 0,
            overflowed: false,
        },
        None => {
            // No feasible t found within the budget (α too high for this
            // depth / block budget): fall back to t = lo, best effort.
            let eval = collect_above(curve, dims, depth, lo, max_blocks, factor);
            nodes_total += eval.nodes;
            tmax = lo;
            eval
        }
    };

    let truncated = stopped || best.overflowed || best.psup < alpha;
    FilterOutcome {
        mass: best.psup,
        blocks: best.blocks,
        nodes_expanded: nodes_total,
        tmax: Some(tmax),
        iterations: u32::try_from(iterations).unwrap_or(u32::MAX),
        algo: "",
        truncated,
    }
}

/// Geometric filter of a classical ε-range query: selects every depth-p
/// block whose box intersects the closed ball `‖X − q‖ ≤ eps`. The score of
/// each block is its squared min-distance to the query.
///
/// This filter is *complete*: every fingerprint within ε of the query lies in
/// a selected block, so range-query recall is exact (the cost, studied in
/// Fig. 5/6, is that high-dimensional spheres intersect very many blocks).
pub fn select_blocks_range(
    curve: &HilbertCurve,
    q: &[u8],
    depth: u32,
    eps: f64,
    max_blocks: usize,
) -> FilterOutcome {
    assert_eq!(q.len(), curve.dims(), "query dimension mismatch");
    assert!(
        depth >= 1 && depth <= curve.key_bits(),
        "depth out of range"
    );
    assert!(eps >= 0.0);

    let qf = query_coords(q);
    let eps_sq = eps * eps;
    let mut blocks = Vec::new();
    let mut nodes = 0usize;
    let mut truncated = false;
    let mut stack = vec![Block::root(curve)];
    while let Some(block) = stack.pop() {
        let d2 = block.min_dist_sq(&qf);
        if d2 > eps_sq {
            continue;
        }
        if block.depth() == depth {
            if blocks.len() >= max_blocks {
                truncated = true;
                continue;
            }
            blocks.push(ScoredBlock { block, score: d2 });
            continue;
        }
        nodes += 1;
        for child in block.split(curve) {
            stack.push(child);
        }
    }
    observed(
        FilterOutcome {
            blocks,
            mass: f64::NAN,
            nodes_expanded: nodes,
            tmax: None,
            iterations: 0,
            algo: "",
            truncated,
        },
        "range",
    )
}

/// Classical bounding-box filter: selects every depth-p block intersecting
/// the axis-aligned box `[q − eps, q + eps]^D` that encloses the query ball.
///
/// This is what a Lawder-style curve index could compute ("only
/// hyper-rectangular range queries are computable with Lawder's indexing
/// technique", §IV): a spherical query must be enclosed in its AABB before
/// filtering. In high dimension the box-to-ball volume ratio is astronomical,
/// so this baseline degenerates toward a sequential scan — the gap the
/// paper's Fig. 6 speed-ups are measured against.
pub fn select_blocks_bbox(
    curve: &HilbertCurve,
    q: &[u8],
    depth: u32,
    eps: f64,
    max_blocks: usize,
) -> FilterOutcome {
    assert_eq!(q.len(), curve.dims(), "query dimension mismatch");
    assert!(
        depth >= 1 && depth <= curve.key_bits(),
        "depth out of range"
    );
    assert!(eps >= 0.0);

    let qf = query_coords(q);
    let mut blocks = Vec::new();
    let mut nodes = 0usize;
    let mut truncated = false;
    let mut stack = vec![Block::root(curve)];
    while let Some(block) = stack.pop() {
        let intersects = (0..curve.dims()).all(|d| {
            let (lo, hi) = block.dim_bounds(d);
            f64::from(hi - 1) >= qf[d] - eps && f64::from(lo) <= qf[d] + eps
        });
        if !intersects {
            continue;
        }
        if block.depth() == depth {
            if blocks.len() >= max_blocks {
                truncated = true;
                continue;
            }
            blocks.push(ScoredBlock {
                block,
                score: block.min_dist_sq(&qf),
            });
            continue;
        }
        nodes += 1;
        for child in block.split(curve) {
            stack.push(child);
        }
    }
    observed(
        FilterOutcome {
            blocks,
            mass: f64::NAN,
            nodes_expanded: nodes,
            tmax: None,
            iterations: 0,
            algo: "",
            truncated,
        },
        "bbox",
    )
}

/// Merges a filter outcome's blocks into sorted, non-overlapping contiguous
/// key ranges — the scan list of the refinement step.
pub fn merge_block_ranges(curve: &HilbertCurve, outcome: &FilterOutcome) -> Vec<KeyRange> {
    let mut ranges: Vec<KeyRange> = outcome
        .blocks
        .iter()
        .map(|sb| sb.block.key_range(curve))
        .collect();
    ranges.sort_unstable_by_key(|r| r.lo);
    let mut merged: Vec<KeyRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match merged.last_mut() {
            Some(last) if last.abuts(&r) => *last = last.merged(&r),
            _ => merged.push(r),
        }
    }
    merged
}

/// What the plan stage selects blocks for, and how refinement then keeps
/// records.
#[derive(Clone, Copy)]
pub(crate) enum Selection<'a> {
    /// A statistical query of expectation α (§II, eq. 1): `opts.algo`
    /// over the model's distortion mass, refined by `opts.refine`.
    Stat(&'a dyn DistortionModel, &'a StatQueryOpts),
    /// An exact ε-range query: every depth-`depth` block meeting the ball.
    Range {
        /// Query radius.
        eps: f64,
        /// Partition depth `p`.
        depth: u32,
    },
    /// An ε-range query through the bounding-box filter (Fig. 6 baseline).
    BBox {
        /// Query radius.
        eps: f64,
        /// Partition depth `p`.
        depth: u32,
    },
}

impl<'a> Selection<'a> {
    /// Refinement predicate of the scan that follows the plan.
    pub(crate) fn refine(&self) -> Refine {
        match *self {
            Selection::Stat(_, opts) => opts.refine,
            Selection::Range { eps, .. } | Selection::BBox { eps, .. } => Refine::Range(eps),
        }
    }

    /// The distortion model (statistical queries only).
    pub(crate) fn model(&self) -> Option<&'a dyn DistortionModel> {
        match *self {
            Selection::Stat(model, _) => Some(model),
            _ => None,
        }
    }

    /// Whether the scan may consult a section sketch.
    pub(crate) fn sketch(&self) -> bool {
        match *self {
            Selection::Stat(_, opts) => opts.sketch,
            _ => true,
        }
    }
}

/// One query's plan: the blocks the filter chose and their merged key
/// ranges. The filter reads only the query, α, p and the model — never the
/// database — so one plan feeds every storage (§IV-A).
pub(crate) struct Plan {
    /// The filter's block selection.
    pub outcome: FilterOutcome,
    /// `outcome`'s blocks merged into sorted, disjoint key ranges — the
    /// scan list of every engine.
    pub ranges: Vec<KeyRange>,
}

/// Plans one query under a `query.filter` span. Statistical selections
/// dispatch `opts.algo` over the [`MassCache`] and poll `ctx` when given.
///
/// # Panics
/// If the query's dimension, the depth or α is out of range.
pub(crate) fn plan(
    curve: &HilbertCurve,
    q: &[u8],
    sel: Selection<'_>,
    ctx: Option<&QueryCtx>,
) -> Plan {
    plan_in(span!("query.filter"), curve, q, sel, ctx)
}

fn plan_in(
    mut sp: Span,
    curve: &HilbertCurve,
    q: &[u8],
    sel: Selection<'_>,
    ctx: Option<&QueryCtx>,
) -> Plan {
    let outcome = match sel {
        Selection::Stat(model, opts) => select_cached(curve, model, q, opts, ctx),
        Selection::Range { eps, depth } => select_blocks_range(curve, q, depth, eps, usize::MAX),
        Selection::BBox { eps, depth } => select_blocks_bbox(curve, q, depth, eps, usize::MAX),
    };
    sp.record("blocks", outcome.blocks.len() as f64);
    sp.record("nodes", outcome.nodes_expanded as f64);
    sp.record("mass", outcome.mass);
    let ranges = merge_block_ranges(curve, &outcome);
    Plan { outcome, ranges }
}

impl FilterOutcome {
    /// The filter fields of a query's [`QueryStats`]; the scan fills the
    /// rest.
    pub(crate) fn stats(&self) -> QueryStats {
        QueryStats {
            nodes_expanded: self.nodes_expanded,
            blocks_selected: self.blocks.len(),
            mass: self.mass,
            tmax: self.tmax,
            truncated: self.truncated,
            ..QueryStats::default()
        }
    }
}

/// The plans of a batch, in query order.
pub(crate) struct BatchPlan<'a> {
    /// Merged key ranges per query (empty for a query a fired token
    /// skipped).
    pub ranges: Vec<Vec<KeyRange>>,
    /// Per-query stats holding the filter fields; `cancelled` marks a
    /// query whose filter was skipped or may have been cut short.
    pub stats: Vec<QueryStats>,
    /// Total filtering time ([`crate::pseudo_disk::BatchTiming::filter`]).
    pub filter: Duration,
    /// What was planned, and so how the scan refines.
    pub sel: Selection<'a>,
    /// EXPLAIN only (else empty): each query's filter outcome (`None` when
    /// skipped) and filter wall time in ns.
    pub outcomes: Vec<Option<FilterOutcome>>,
    /// See `outcomes`.
    pub filter_ns: Vec<u64>,
}

impl<'a> BatchPlan<'a> {
    /// This plan with every query skipped: empty ranges, flagged
    /// `cancelled` — what a scan that starts past a stop runs.
    pub(crate) fn stopped(&self) -> BatchPlan<'a> {
        BatchPlan {
            ranges: vec![Vec::new(); self.ranges.len()],
            stats: vec![
                QueryStats {
                    cancelled: true,
                    ..QueryStats::default()
                };
                self.stats.len()
            ],
            filter: Duration::ZERO,
            sel: self.sel,
            outcomes: Vec::new(),
            filter_ns: Vec::new(),
        }
    }
}

/// Plans every query of a batch. Checks each query's dimension; once `ctx`
/// fires, the remaining queries are skipped outright (empty, flagged
/// `cancelled`). With `explain`, keeps each outcome and its filter time for
/// the EXPLAIN reports; otherwise block lists drop right after merging.
pub(crate) fn plan_batch<'a>(
    curve: &HilbertCurve,
    queries: &[&[u8]],
    sel: Selection<'a>,
    ctx: Option<&QueryCtx>,
    explain: bool,
) -> Result<BatchPlan<'a>, IndexError> {
    let should_stop = || ctx.is_some_and(QueryCtx::should_stop);
    let t0 = Instant::now();
    let mut plan = BatchPlan {
        ranges: Vec::with_capacity(queries.len()),
        stats: Vec::with_capacity(queries.len()),
        filter: Duration::ZERO,
        sel,
        outcomes: Vec::new(),
        filter_ns: Vec::new(),
    };
    for (qi, q) in queries.iter().enumerate() {
        if q.len() != curve.dims() {
            return Err(IndexError::QueryDims {
                expected: curve.dims(),
                got: q.len(),
            });
        }
        if should_stop() {
            plan.ranges.push(Vec::new());
            plan.stats.push(QueryStats {
                cancelled: true,
                ..QueryStats::default()
            });
            if explain {
                plan.outcomes.push(None);
                plan.filter_ns.push(0);
            }
            continue;
        }
        let tq = Instant::now();
        let Plan { outcome, ranges } =
            plan_in(span!("query.filter", "qi" => qi as f64), curve, q, sel, ctx);
        let mut st = outcome.stats();
        // Conservative: if the token fired while this filter ran, its
        // selection may be partial — flag it even if it just finished.
        st.cancelled = should_stop();
        plan.ranges.push(ranges);
        plan.stats.push(st);
        if explain {
            plan.filter_ns.push(tq.elapsed().as_nanos() as u64);
            plan.outcomes.push(Some(outcome));
        }
    }
    plan.filter = t0.elapsed();
    Ok(plan)
}

/// The plan side of a statistical query's EXPLAIN report: the filter's
/// algorithm, threshold, per-block predicted masses, its `filter` phase and
/// the plan annotations. `outcome` is `None` for a query cancelled before
/// filtering. Every engine starts its report here and adds what its scan
/// saw.
pub(crate) fn plan_report(
    outcome: Option<&FilterOutcome>,
    opts: &StatQueryOpts,
    query_id: u64,
    filter_ns: u64,
) -> ExplainReport {
    let mut rep = ExplainReport {
        query_id,
        alpha: opts.alpha,
        depth: opts.depth,
        phases: vec![ExplainPhase {
            name: "filter",
            ns: filter_ns,
        }],
        ..ExplainReport::default()
    };
    let Some(outcome) = outcome else {
        rep.annotations
            .push("cancelled before filtering — empty plan".into());
        return rep;
    };
    rep.algo = outcome.algo;
    rep.tmax = outcome.tmax.unwrap_or(0.0);
    rep.iterations = outcome.iterations;
    rep.predicted_mass = outcome.mass;
    rep.blocks = outcome
        .blocks
        .iter()
        .map(|sb| BlockExplain {
            depth: sb.block.depth(),
            predicted_mass: sb.score,
            ..BlockExplain::default()
        })
        .collect();
    if outcome.truncated {
        rep.annotations
            .push("block budget truncated selection before reaching α".into());
    }
    if outcome.mass.is_finite() && outcome.mass < opts.alpha - 1e-9 {
        rep.annotations.push(format!(
            "achieved mass {:.4} below requested α {:.4}",
            outcome.mass, opts.alpha
        ));
    }
    rep
}

/// Fills in the scan side of a report's totals: records scanned, matches,
/// sketch skips, and the observed selectivity over `db_len` records.
pub(crate) fn scan_report(rep: &mut ExplainReport, st: &QueryStats, matches: usize, db_len: u64) {
    rep.entries_scanned = st.entries_scanned as u64;
    rep.matches = matches as u64;
    rep.sketch_skipped = st.sketch_skipped as u64;
    rep.observed_selectivity = if db_len > 0 {
        st.entries_scanned as f64 / db_len as f64
    } else {
        0.0
    };
}

/// Per-block EXPLAIN accounting over one sorted run of records whose first
/// record has global index `base`: `locate` maps a block's key range to its
/// record interval within the run. Each block of `outcome` gains the
/// records scanned in it, and each of `matches` is attributed to the unique
/// block whose interval holds it (depth-p blocks are disjoint and tile the
/// merged scan ranges).
pub(crate) fn account_blocks(
    curve: &HilbertCurve,
    outcome: &FilterOutcome,
    base: usize,
    locate: impl Fn(&KeyRange) -> (usize, usize),
    matches: &[Match],
    blocks: &mut [BlockExplain],
) {
    let mut intervals: Vec<(usize, usize, usize)> = Vec::with_capacity(outcome.blocks.len());
    for (bi, sb) in outcome.blocks.iter().enumerate() {
        let (lo, hi) = locate(&sb.block.key_range(curve));
        if hi > lo {
            blocks[bi].scanned += (hi - lo) as u64;
            intervals.push((base + lo, base + hi, bi));
        }
    }
    intervals.sort_unstable();
    for m in matches {
        let p = intervals.partition_point(|&(start, _, _)| start <= m.index);
        if p > 0 {
            let (start, end, bi) = intervals[p - 1];
            if m.index >= start && m.index < end {
                blocks[bi].matched += 1;
            }
        }
    }
}

/// EXPLAIN annotation of a query a deadline or cancellation stopped.
pub(crate) fn stop_annotation(ctx: Option<&QueryCtx>) -> String {
    match ctx.and_then(QueryCtx::stop_cause) {
        Some(CancelCause::DeadlineExceeded) => "deadline exceeded — partial scan".into(),
        Some(cause) => format!("cancelled ({cause:?}) — partial scan"),
        None => "cancelled — partial scan".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::IsotropicNormal;

    fn small_setup() -> (HilbertCurve, IsotropicNormal) {
        (
            HilbertCurve::new(2, 6).unwrap(),
            IsotropicNormal::new(2, 8.0),
        )
    }

    #[test]
    fn best_first_reaches_alpha() {
        let (curve, model) = small_setup();
        let q = [32u8, 32];
        for alpha in [0.3, 0.5, 0.8, 0.95] {
            let out = select_blocks_best_first(&curve, &model, &q, 6, alpha, 1 << 12);
            assert!(out.mass >= alpha, "alpha={alpha} mass={}", out.mass);
            assert!(!out.truncated);
            assert!(!out.blocks.is_empty());
        }
    }

    #[test]
    fn best_first_masses_are_nonincreasing() {
        let (curve, model) = small_setup();
        let out = select_blocks_best_first(&curve, &model, &[20, 40], 8, 0.9, 1 << 12);
        for w in out.blocks.windows(2) {
            assert!(
                w[0].score >= w[1].score - 1e-12,
                "best-first must emit blocks in non-increasing mass order"
            );
        }
    }

    #[test]
    fn best_first_is_minimal_cardinality() {
        // Compare against brute force: enumerate all blocks at depth p, sort
        // by mass, take the minimal prefix reaching alpha.
        let (curve, model) = small_setup();
        let q = [10u8, 55];
        let qf = query_coords(&q);
        let depth = 7;
        let alpha = 0.85f64;
        let mut all: Vec<f64> = s3_hilbert::blocks_at_depth(&curve, depth)
            .iter()
            .map(|b| block_mass(&model, &qf, b))
            .collect();
        all.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Apply the same boundary clamp as the filter: the achievable mass is
        // capped by the total in-grid mass.
        let total: f64 = all.iter().sum();
        let target = alpha.min(total * (1.0 - 1e-9));
        let mut acc = 0.0;
        let mut brute = 0;
        for m in &all {
            acc += m;
            brute += 1;
            if acc >= target {
                break;
            }
        }
        let out = select_blocks_best_first(&curve, &model, &q, depth, alpha, 1 << 14);
        assert_eq!(out.blocks.len(), brute);
    }

    #[test]
    fn best_first_total_mass_matches_brute_force() {
        let (curve, model) = small_setup();
        let q = [0u8, 63];
        let qf = query_coords(&q);
        let out = select_blocks_best_first(&curve, &model, &q, 6, 0.7, 1 << 12);
        for sb in &out.blocks {
            let direct = block_mass(&model, &qf, &sb.block);
            assert!(
                (sb.score - direct).abs() < 1e-12,
                "incremental mass drifted: {} vs {direct}",
                sb.score
            );
        }
    }

    #[test]
    fn threshold_matches_best_first_coverage() {
        let (curve, model) = small_setup();
        let q = [40u8, 22];
        for alpha in [0.5, 0.8, 0.9] {
            let bf = select_blocks_best_first(&curve, &model, &q, 8, alpha, 1 << 14);
            let th = select_blocks_threshold(&curve, &model, &q, 8, alpha, 1 << 14, 40);
            assert!(th.mass >= alpha, "threshold undershoots alpha={alpha}");
            // The threshold filter returns B(t_max) ⊇ the minimal set; with
            // enough bisection steps they coincide up to ties.
            assert!(
                th.blocks.len() >= bf.blocks.len(),
                "threshold cannot be smaller than the minimal set"
            );
            assert!(
                th.blocks.len() <= bf.blocks.len() + 2,
                "threshold set should be near-minimal: {} vs {}",
                th.blocks.len(),
                bf.blocks.len()
            );
        }
    }

    #[test]
    fn threshold_reports_tmax() {
        let (curve, model) = small_setup();
        let out = select_blocks_threshold(&curve, &model, &[12, 12], 6, 0.8, 1 << 12, 30);
        let t = out.tmax.expect("threshold filter must report tmax");
        assert!(t > 0.0);
        // Every selected block's mass exceeds tmax.
        for sb in &out.blocks {
            assert!(sb.score > t);
        }
    }

    #[test]
    fn truncation_flag_when_budget_too_small() {
        let (curve, model) = small_setup();
        let out = select_blocks_best_first(&curve, &model, &[32, 32], 10, 0.999, 4);
        assert!(out.truncated);
        assert_eq!(out.blocks.len(), 4);
        assert!(out.mass < 0.999);
    }

    #[test]
    fn range_filter_is_complete() {
        // Every grid point within eps of the query must be inside a selected
        // block.
        let curve = HilbertCurve::new(2, 5).unwrap();
        let q = [13u8, 7];
        let eps = 6.0;
        let out = select_blocks_range(&curve, &q, 6, eps, 1 << 12);
        assert!(!out.truncated);
        for x in 0u32..32 {
            for y in 0u32..32 {
                let dx = f64::from(x) - 13.0;
                let dy = f64::from(y) - 7.0;
                if (dx * dx + dy * dy).sqrt() <= eps {
                    let covered = out.blocks.iter().any(|sb| sb.block.contains(&[x, y]));
                    assert!(covered, "({x},{y}) within eps but not covered");
                }
            }
        }
    }

    #[test]
    fn range_filter_scores_are_min_distances() {
        let curve = HilbertCurve::new(2, 5).unwrap();
        let q = [16u8, 16];
        let out = select_blocks_range(&curve, &q, 4, 10.0, 1 << 12);
        for sb in &out.blocks {
            assert!(sb.score <= 100.0);
            assert_eq!(sb.score, sb.block.min_dist_sq(&[16.0, 16.0]));
        }
    }

    #[test]
    fn statistical_selects_fewer_blocks_than_range_at_same_expectation() {
        // The core claim of §V-A, in miniature: at equal expectation, the
        // statistical filter intercepts fewer blocks than the sphere.
        let dims = 8;
        let curve = HilbertCurve::new(dims, 4).unwrap();
        let sigma = 2.0;
        let model = IsotropicNormal::new(dims, sigma);
        let q = [8u8; 8];
        let alpha = 0.9;
        let eps = s3_stats::NormDistribution::new(dims as u32, sigma).quantile(alpha);
        let depth = 12;
        let stat = select_blocks_best_first(&curve, &model, &q, depth, alpha, 1 << 16);
        let range = select_blocks_range(&curve, &q, depth, eps, 1 << 16);
        assert!(
            stat.blocks.len() < range.blocks.len(),
            "statistical {} should beat geometric {}",
            stat.blocks.len(),
            range.blocks.len()
        );
    }

    #[test]
    fn boundary_query_clamps_alpha_to_achievable_mass() {
        // A query at the corner of the byte cube loses ~3/4 of its model mass
        // outside the grid; the filter must terminate with the achievable
        // coverage rather than exhausting the partition.
        let (curve, model) = small_setup();
        let q = [0u8, 0];
        let out = select_blocks_best_first(&curve, &model, &q, 8, 0.99, 1 << 14);
        assert!(!out.truncated);
        assert!(out.mass < 0.5, "corner query mass is bounded by the cube");
        assert!(out.mass > 0.2, "still captures the in-grid quadrant");
        let th = select_blocks_threshold(&curve, &model, &q, 8, 0.99, 1 << 14, 30);
        assert!((th.mass - out.mass).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn alpha_zero_rejected() {
        let (curve, model) = small_setup();
        select_blocks_best_first(&curve, &model, &[0, 0], 4, 0.0, 16);
    }

    #[test]
    #[should_panic(expected = "depth out of range")]
    fn depth_zero_rejected() {
        let (curve, model) = small_setup();
        select_blocks_best_first(&curve, &model, &[0, 0], 0, 0.5, 16);
    }
}
