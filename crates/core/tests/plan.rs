//! One plan for every engine.
//!
//! The statistical filter reads only the query, α, p and the distortion
//! model, so `S3Index`, `DiskIndex` and `ShardedIndex` must plan a query
//! identically — whichever filter algorithm the options name, with or
//! without a query context — and return the same matches and the same
//! plan-side EXPLAIN fields. The engines that hold records in more than one
//! place (`DynamicIndex`, `DurableIndex`) must plan each query once: a
//! counting model shows that they integrate exactly as many component
//! masses as one `S3Index::stat_query` of the same query.

use s3_core::{
    DiskIndex, DistortionModel, DurableIndex, DurableOptions, DynamicIndex, FilterAlgo,
    IsotropicNormal, Match, MemStorage, QueryCtx, RecordBatch, S3Index, ShardedIndex,
    ShardedOptions, SharedMemStorage, StatQueryOpts, WritableStorage, WriteOpts,
};
use s3_hilbert::HilbertCurve;
use s3_obs::ExplainReport;
use std::sync::atomic::{AtomicUsize, Ordering};

const DIMS: usize = 6;
const MEM: u64 = 8 << 10;
const SIGMA: f64 = 12.0;

fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn records(n: usize, seed: u64) -> RecordBatch {
    let mut batch = RecordBatch::new(DIMS);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in 0..n {
        let fp: Vec<u8> = (0..DIMS).map(|_| (next(&mut state) >> 32) as u8).collect();
        batch.push(&fp, (i / 10) as u32, (i % 10 * 40) as u32);
    }
    batch
}

fn curve() -> HilbertCurve {
    HilbertCurve::new(DIMS, 8).unwrap()
}

/// Jittered copies of stored records plus two cube-corner queries, whose
/// in-cube mass stays below α (the "achieved mass" annotation).
fn queries(index: &S3Index, k: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let mut out: Vec<Vec<u8>> = (0..k)
        .map(|_| {
            let i = (next(&mut state) as usize) % index.len();
            let mut fp = index.records().fingerprint(i).to_vec();
            for b in fp.iter_mut() {
                *b = b.saturating_add(((next(&mut state) >> 32) % 7) as u8);
            }
            fp
        })
        .collect();
    out.push(vec![0; DIMS]);
    out.push(vec![255; DIMS]);
    out
}

fn algos() -> [FilterAlgo; 2] {
    [
        FilterAlgo::BestFirst,
        FilterAlgo::Threshold { iterations: 30 },
    ]
}

/// The plan side of a report: algorithm, threshold, iterations, predicted
/// mass, per-block predicted masses (in plan order) and the annotations of
/// a clean run (which are all plan annotations).
fn plan_side(rep: &ExplainReport) -> impl PartialEq + std::fmt::Debug {
    (
        rep.algo,
        rep.tmax.to_bits(),
        rep.iterations,
        rep.predicted_mass.to_bits(),
        rep.blocks
            .iter()
            .map(|b| (b.depth, b.predicted_mass.to_bits()))
            .collect::<Vec<_>>(),
        rep.annotations.clone(),
    )
}

struct Engines {
    index: S3Index,
    disk: DiskIndex,
    sharded: ShardedIndex,
}

fn engines() -> Engines {
    let index = S3Index::build(curve(), records(1400, 11));
    let bytes = DiskIndex::encode_to_vec(&index, WriteOpts::default()).unwrap();
    let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).unwrap();
    let sharded = ShardedIndex::build_mem(
        &index,
        3,
        2,
        WriteOpts::default(),
        ShardedOptions {
            mem_budget: MEM,
            ..ShardedOptions::default()
        },
    )
    .unwrap();
    Engines {
        index,
        disk,
        sharded,
    }
}

#[test]
fn every_engine_runs_the_named_filter() {
    let e = engines();
    let model = IsotropicNormal::new(DIMS, SIGMA);
    let q = queries(&e.index, 10, 0x9A1);
    let refs: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
    for algo in algos() {
        let mut opts = StatQueryOpts::new(0.9, 12);
        opts.algo = algo;
        let single: Vec<Vec<Match>> = refs
            .iter()
            .map(|q| e.index.stat_query(q, &model, &opts).matches)
            .collect();
        let disk = e.disk.stat_query_batch(&refs, &model, &opts, MEM).unwrap();
        let sharded = e.sharded.stat_query_batch(&refs, &model, &opts).unwrap();
        assert_eq!(disk.matches, single, "{algo:?}: disk");
        assert_eq!(sharded.batch.matches, single, "{algo:?}: sharded");

        let ctx = QueryCtx::unbounded();
        let single: Vec<Vec<Match>> = refs
            .iter()
            .map(|q| e.index.stat_query_ctx(q, &model, &opts, &ctx).matches)
            .collect();
        let disk = e
            .disk
            .stat_query_batch_ctx(&refs, &model, &opts, MEM, &ctx)
            .unwrap();
        let sharded = e
            .sharded
            .stat_query_batch_ctx(&refs, &model, &opts, &ctx)
            .unwrap();
        assert_eq!(disk.matches, single, "{algo:?} with ctx: disk");
        assert_eq!(sharded.batch.matches, single, "{algo:?} with ctx: sharded");
    }
}

#[test]
fn plan_side_explain_is_engine_independent() {
    let e = engines();
    let model = IsotropicNormal::new(DIMS, SIGMA);
    let q = queries(&e.index, 8, 0x5EED);
    let refs: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
    let ctx = QueryCtx::unbounded();
    for algo in algos() {
        for ctx in [None, Some(&ctx)] {
            let mut opts = StatQueryOpts::new(0.9, 12);
            opts.algo = algo;
            let (_, disk) = e
                .disk
                .stat_query_batch_explain(&refs, &model, &opts, MEM, ctx)
                .unwrap();
            let (_, sharded) = e
                .sharded
                .stat_query_batch_explain(&refs, &model, &opts, ctx)
                .unwrap();
            let mut below_alpha = 0;
            for (qi, q) in refs.iter().enumerate() {
                let (_, single) = e.index.stat_query_explained(q, &model, &opts, ctx);
                let want = plan_side(&single);
                assert_eq!(plan_side(&disk[qi]), want, "{algo:?} query {qi}: disk");
                assert_eq!(
                    plan_side(&sharded[qi]),
                    want,
                    "{algo:?} query {qi}: sharded"
                );
                assert_eq!(sharded[qi].degraded(), single.degraded());
                below_alpha += usize::from(single.predicted_mass < opts.alpha);
            }
            assert!(below_alpha >= 2, "the corner queries must fall short of α");
        }
    }
}

/// A test-owned model that counts the component masses it integrates.
struct CountingModel {
    inner: IsotropicNormal,
    calls: AtomicUsize,
}

impl CountingModel {
    fn new() -> CountingModel {
        CountingModel {
            inner: IsotropicNormal::new(DIMS, SIGMA),
            calls: AtomicUsize::new(0),
        }
    }

    /// Masses integrated since the last call.
    fn take(&self) -> usize {
        self.calls.swap(0, Ordering::SeqCst)
    }
}

impl DistortionModel for CountingModel {
    fn dims(&self) -> usize {
        self.inner.dims()
    }

    fn component_mass(&self, dim: usize, a: f64, b: f64) -> f64 {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.component_mass(dim, a, b)
    }

    fn log_pdf(&self, delta: &[f64]) -> f64 {
        self.inner.log_pdf(delta)
    }

    fn severity(&self) -> f64 {
        self.inner.severity()
    }
}

#[test]
fn each_query_is_planned_once() {
    let model = CountingModel::new();
    let opts = StatQueryOpts::new(0.9, 12);
    let base = records(600, 5);
    let extra = records(40, 6);
    let index = S3Index::build(curve(), base.clone());
    let q = index.records().fingerprint(17).to_vec();

    let _ = index.stat_query(&q, &model, &opts);
    let once = model.take();
    assert!(once > 0);

    let mut dynamic = DynamicIndex::new(index, 1.0);
    for i in 0..extra.len() {
        let r = extra.record(i);
        dynamic.insert(r.fingerprint, r.id, r.tc);
    }
    assert!(dynamic.overlay_len() > 0);
    let _ = dynamic.stat_query(&q, &model, &opts);
    assert_eq!(model.take(), once, "DynamicIndex query");

    let data = SharedMemStorage::new();
    let wal = SharedMemStorage::new();
    let boxed = |s: &SharedMemStorage| Box::new(s.clone()) as Box<dyn WritableStorage>;
    let mut durable = DurableIndex::create(
        boxed(&data),
        boxed(&wal),
        curve(),
        DurableOptions::default(),
    )
    .unwrap();
    for i in 0..base.len() {
        let r = base.record(i);
        durable.insert(r.fingerprint, r.id, r.tc).unwrap();
    }
    durable.merge().unwrap();
    for i in 0..extra.len() {
        let r = extra.record(i);
        durable.insert(r.fingerprint, r.id, r.tc).unwrap();
    }
    assert!(durable.pending_len() > 0);
    let _ = model.take();
    let batch = durable
        .stat_query_batch(&[q.as_slice()], &model, &opts, 1 << 20)
        .unwrap();
    assert!(!batch.matches[0].is_empty());
    assert_eq!(model.take(), once, "DurableIndex probe");
}
