//! `archive` and `sharded`: the paper's Figs. 6–7 search at scale. Batches
//! of `N_sig` distorted queries `Q = S + ΔS` against archive-model
//! fingerprints, with the production defaults of `s3cbcd query`
//! (`for_db_size` depth, `Refine::All`, sketch on), either through a
//! file-backed `DiskIndex` streaming sections under a memory budget well
//! below the index size, or through an in-memory `ShardedIndex`.

use crate::alloc;
use crate::common::{
    archive_seed, median, ms, per_op_min, splitmix, timed, Config, Report, ROUNDS,
};
use crate::counting::{Counting, IoCounts, IoSnapshot};
use s3_bench::workload::{extracted_pool, DistortedQuery, FingerprintSampler};
use s3_core::{
    pseudo_disk::BatchResult, DiskIndex, FileStorage, IndexError, IsotropicNormal, Match,
    MemStorage, RecordBatch, S3Index, ShardedIndex, ShardedOptions, Sketch, StatQueryOpts,
    WriteOpts,
};
use s3_hilbert::HilbertCurve;
use s3_video::FINGERPRINT_DIMS;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ALPHA: f64 = 0.8;
const SIGMA: f64 = 15.0;

#[derive(Clone, Copy, Debug)]
pub enum Engine {
    Disk,
    Sharded,
}

struct Inputs {
    records: RecordBatch,
    batches: Vec<Vec<DistortedQuery>>,
}

struct Sizes {
    records: usize,
    nsig: usize,
    batches: usize,
    gate_batches: usize,
    mem_budget: u64,
}

fn sizes(cfg: &Config) -> Sizes {
    cfg.scale.pick(
        Sizes {
            records: 200_000,
            nsig: 16,
            // `ROUNDS` rounds of about 0.37 s per batch fill `--seconds`.
            batches: ((cfg.seconds / 0.37 / ROUNDS as f64).round() as usize).max(2),
            gate_batches: 2,
            mem_budget: 1 << 20,
        },
        Sizes {
            records: 20_000,
            nsig: 8,
            batches: 3,
            gate_batches: 1,
            mem_budget: 64 << 10,
        },
    )
}

fn inputs(cfg: &Config, sz: &Sizes) -> Inputs {
    let pool = extracted_pool(cfg.scale.pick(8, 3), 60, archive_seed(0x10));
    let records = FingerprintSampler::new(pool, 20.0, archive_seed(0x11)).batch(sz.records);
    let library = spread_queries(&records, sz.nsig * sz.batches, archive_seed(0x12));
    let batches = deal(&library, sz.nsig, cfg.sub_seed(0x13));
    Inputs { records, batches }
}

/// A fixed library of `n` distorted queries `Q = S + ΔS`,
/// `ΔS ~ N(0, SIGMA)` per component, whose sources `S` are spaced evenly
/// along the Hilbert curve, in curve order. The run seed schedules the
/// traffic rather than drawing it: with sources drawn per seed, the mean
/// cost per query moved by about ±10% from seed to seed.
fn spread_queries(records: &RecordBatch, n: usize, library_seed: u64) -> Vec<DistortedQuery> {
    let sorted = S3Index::build(HilbertCurve::paper(), records.clone());
    let sorted = sorted.records();
    let step = sorted.len() / n;
    let offset = (splitmix(library_seed) % step as u64) as usize;
    let mut state = library_seed;
    let mut uniform = || {
        state = splitmix(state);
        ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    };
    (0..n)
        .map(|k| {
            let i = offset + k * step;
            let mut query = [0u8; FINGERPRINT_DIMS];
            for (c, &s) in query.iter_mut().zip(sorted.fingerprint(i)) {
                let (u1, u2) = (uniform(), uniform());
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                *c = (f64::from(s) + SIGMA * z).clamp(0.0, 255.0) as u8;
            }
            DistortedQuery {
                query,
                id: sorted.id(i),
                tc: sorted.tc(i),
            }
        })
        .collect()
}

/// Deals the library into batches of `nsig`: the library is cut into `nsig`
/// runs of consecutive queries along the curve, and every batch takes one
/// query from each run, which one drawn from `seed`. Each batch then spans
/// the whole curve, so every seed's batches draw the same mix of dense and
/// sparse regions and the median batch stays comparable across seeds.
fn deal(library: &[DistortedQuery], nsig: usize, seed: u64) -> Vec<Vec<DistortedQuery>> {
    let n_batches = library.len() / nsig;
    let mut batches = vec![Vec::with_capacity(nsig); n_batches];
    for (r, run) in library.chunks(n_batches).enumerate() {
        let mut slots: Vec<usize> = (0..n_batches).collect();
        slots.sort_by_key(|&b| splitmix(seed ^ splitmix((r * n_batches + b) as u64)));
        for (q, &b) in run.iter().zip(&slots) {
            batches[b].push(*q);
        }
    }
    batches
}

/// The engine under test.
enum Served {
    Disk(DiskIndex),
    Sharded(ShardedIndex),
}

/// Outcome of one batch, engine-independent.
struct Answer {
    result: BatchResult,
    /// Sharded only: max per-shard dispatch time (the scatter's blocking
    /// part), all per-shard times, hedges and failovers.
    scatter_ns: u64,
    shard_ns: Vec<u64>,
    hedges: usize,
    failovers: usize,
}

impl Served {
    fn query(
        &self,
        q: &[&[u8]],
        model: &IsotropicNormal,
        opts: &StatQueryOpts,
        mem_budget: u64,
    ) -> Result<Answer, IndexError> {
        match self {
            Served::Disk(d) => Ok(Answer {
                result: d.stat_query_batch(q, model, opts, mem_budget)?,
                scatter_ns: 0,
                shard_ns: Vec::new(),
                hedges: 0,
                failovers: 0,
            }),
            Served::Sharded(s) => {
                let r = s.stat_query_batch(q, model, opts)?;
                let shard_ns: Vec<u64> = r.shards.iter().map(|x| x.elapsed_ns).collect();
                Ok(Answer {
                    result: r.batch,
                    scatter_ns: shard_ns.iter().copied().max().unwrap_or(0),
                    shard_ns,
                    hedges: r.hedges,
                    failovers: r.failovers,
                })
            }
        }
    }
}

/// The program's set-up: build the index, then write and open it (disk) or
/// split it over in-memory replicas (shards). Returns the built in-memory
/// index too, the gate's reference, and the index build time.
fn setup(
    cfg: &Config,
    engine: Engine,
    inp: &Inputs,
    sz: &Sizes,
    io: &Arc<IoCounts>,
) -> (S3Index, Served, Duration) {
    let t0 = Instant::now();
    let index = S3Index::build(HilbertCurve::paper(), inp.records.clone());
    let build = t0.elapsed();
    let served = match engine {
        Engine::Disk => {
            let path = cfg.work_dir.join("archive.idx");
            DiskIndex::write(&index, &path).expect("write index");
            let file = FileStorage::open(&path).expect("open index");
            let mut disk = DiskIndex::open_storage(Box::new(Counting::new(file, Arc::clone(io))))
                .expect("open index");
            let sidecar = FileStorage::open(Sketch::sidecar_path(&path)).expect("open sketch");
            assert!(
                disk.attach_sketch_storage(&sidecar),
                "sketch sidecar attaches"
            );
            Served::Disk(disk)
        }
        Engine::Sharded => Served::Sharded(
            ShardedIndex::build_mem(
                &index,
                2,
                2,
                WriteOpts::default(),
                ShardedOptions {
                    mem_budget: sz.mem_budget,
                    ..ShardedOptions::default()
                },
            )
            .expect("build shards"),
        ),
    };
    (index, served, build)
}

fn refs(batch: &[DistortedQuery]) -> Vec<&[u8]> {
    batch.iter().map(|d| d.query.as_slice()).collect()
}

fn found(matches: &[Match], d: &DistortedQuery) -> bool {
    matches.iter().any(|m| m.id == d.id && m.tc == d.tc)
}

/// Per-layer sums over a traced cycle.
#[derive(Default)]
struct Layers {
    filter: Duration,
    load: Duration,
    refine: Duration,
    sections_loaded: usize,
    sketch_skips: usize,
    bytes_loaded: u64,
    nodes: usize,
    blocks: usize,
    mass: f64,
    entries: usize,
    matches: usize,
    queries: usize,
    scatter: Duration,
    shard_ns: Vec<f64>,
    hedges: usize,
    failovers: usize,
    single: Duration,
}

/// One pass over `batches`: answers, batch latencies (ms), peak heap per
/// batch, the wall time of the engine calls, failures and layer sums.
struct Cycle {
    answers: Vec<Vec<Vec<Match>>>,
    lat_ms: Vec<f64>,
    peaks: Vec<usize>,
    wall: Duration,
    failed: u64,
    layers: Layers,
}

struct Run<'a> {
    served: &'a Served,
    model: IsotropicNormal,
    opts: StatQueryOpts,
    mem_budget: u64,
}

impl Run<'_> {
    /// With `shadow_single`, also times each batch on the single-node
    /// index.
    fn cycle(&self, batches: &[Vec<DistortedQuery>], shadow_single: Option<&DiskIndex>) -> Cycle {
        let mut c = Cycle {
            answers: Vec::new(),
            lat_ms: Vec::new(),
            peaks: Vec::new(),
            wall: Duration::ZERO,
            failed: 0,
            layers: Layers::default(),
        };
        for batch in batches {
            let q = refs(batch);
            let t0 = Instant::now();
            let (res, peak) = alloc::peak_during(|| {
                self.served
                    .query(&q, &self.model, &self.opts, self.mem_budget)
            });
            let dt = t0.elapsed();
            c.wall += dt;
            c.lat_ms.push(ms(dt));
            c.peaks.push(peak);
            let a = match res {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("batch failed: {e}");
                    c.failed += 1;
                    c.answers.push(vec![Vec::new(); batch.len()]);
                    continue;
                }
            };
            if a.result.timing.degraded || a.result.stats.iter().any(|s| s.degraded) {
                c.failed += 1;
            }
            let l = &mut c.layers;
            let t = &a.result.timing;
            l.filter += t.filter;
            l.load += t.load;
            l.refine += t.refine;
            l.sections_loaded += t.sections_loaded;
            l.sketch_skips += t.sketch_skips;
            l.bytes_loaded += t.bytes_loaded;
            for (s, m) in a.result.stats.iter().zip(&a.result.matches) {
                l.nodes += s.nodes_expanded;
                l.blocks += s.blocks_selected;
                l.mass += s.mass;
                l.entries += s.entries_scanned;
                l.matches += m.len();
                l.queries += 1;
            }
            l.scatter += Duration::from_nanos(a.scatter_ns);
            l.shard_ns.extend(a.shard_ns.iter().map(|&n| n as f64));
            l.hedges += a.hedges;
            l.failovers += a.failovers;
            if let Some(single) = shadow_single {
                let t1 = Instant::now();
                let _ = single.stat_query_batch(&q, &self.model, &self.opts, self.mem_budget);
                l.single += t1.elapsed();
            }
            c.answers.push(a.result.matches);
        }
        c
    }
}

pub fn run(cfg: &Config, engine: Engine) -> Report {
    let sz = sizes(cfg);
    let inp = inputs(cfg, &sz);
    let baseline = alloc::live();
    let io = Arc::new(IoCounts::default());
    let ((index, served, build), first_setup_s) = timed(|| setup(cfg, engine, &inp, &sz, &io));
    let run = Run {
        served: &served,
        model: IsotropicNormal::new(inp.records.dims(), SIGMA),
        opts: StatQueryOpts::for_db_size(ALPHA, inp.records.len()),
        mem_budget: sz.mem_budget,
    };
    let (model, opts) = (&run.model, &run.opts);

    // Gate: the first batches must be bit-identical to the reference — the
    // in-memory index for the file-backed engine, a single-node in-memory
    // `DiskIndex` (also the traced run's baseline) for shards.
    let single = match engine {
        Engine::Disk => None,
        Engine::Sharded => {
            let bytes =
                DiskIndex::encode_to_vec(&index, WriteOpts::default()).expect("encode single node");
            Some(DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).expect("open single"))
        }
    };
    let mut correct = true;
    for batch in inp.batches.iter().take(sz.gate_batches) {
        let q = refs(batch);
        let got = served
            .query(&q, model, opts, sz.mem_budget)
            .expect("gate batch");
        let want: Vec<Vec<Match>> = match &single {
            None => q
                .iter()
                .map(|q| index.stat_query(q, model, opts).matches)
                .collect(),
            Some(d) => {
                d.stat_query_batch(&q, model, opts, sz.mem_budget)
                    .expect("single-node batch")
                    .matches
            }
        };
        if got.result.matches != want {
            eprintln!("gate: answers differ from the reference");
            correct = false;
        }
    }
    drop(index);
    let sections = match &served {
        Served::Disk(d) => d.pick_sections(sz.mem_budget).map_or(0, |r| 1u32 << r),
        Served::Sharded(_) => 0,
    };
    eprintln!(
        "{}: {} records, depth {}, {} batches of {}, {} sections; gate over {} batches {}",
        cfg.workload,
        inp.records.len(),
        opts.depth,
        inp.batches.len(),
        sz.nsig,
        sections,
        sz.gate_batches,
        if correct { "bit-identical" } else { "FAILED" }
    );

    let mut rep = Report {
        correct,
        ..Report::default()
    };
    if !cfg.trace {
        drop(single);
        // Set-up is repeated between rounds, on its own counters and file.
        let mut setups = vec![first_setup_s];
        let mut rounds = Vec::with_capacity(ROUNDS);
        for r in 0..ROUNDS {
            rounds.push(run.cycle(&inp.batches, None));
            if r + 1 < ROUNDS {
                let again = Config {
                    work_dir: cfg.work_dir.join(format!("setup-{r}")),
                    ..cfg.clone()
                };
                std::fs::create_dir_all(&again.work_dir).expect("create set-up dir");
                let io = Arc::new(IoCounts::default());
                setups.push(timed(|| setup(&again, engine, &inp, &sz, &io)).1);
            }
        }
        let first = &rounds[0];
        let n_queries: usize = inp.batches.iter().map(Vec::len).sum();
        let hits = inp
            .batches
            .iter()
            .flatten()
            .zip(first.answers.iter().flatten())
            .filter(|(d, m)| found(m, d))
            .count();
        for r in &rounds {
            rep.failed += r.failed;
            if r.answers != first.answers {
                eprintln!("timed answers differ between rounds");
                rep.correct = false;
            }
        }
        let lat_ms = per_op_min(rounds.iter().map(|r| &r.lat_ms[..]));
        rep.attempted = (ROUNDS * lat_ms.len()) as u64;
        rep.set("setup_s", median(&setups));
        rep.set("mem_mb", alloc::median_mb(&first.peaks, baseline));
        rep.set("recall", hits as f64 / n_queries as f64);
        rep.set(
            "rate_per_s",
            n_queries as f64 / (lat_ms.iter().sum::<f64>() * 1e-3),
        );
        rep.set("op_p50_ms", median(&lat_ms));
        return rep;
    }

    // Traced: the first half of the batches untraced, then traced.
    let half = &inp.batches[..inp.batches.len().div_ceil(2)];
    let plain = run.cycle(half, None);
    let io_before = io.snapshot();
    let traced = run.cycle(half, single.as_ref());
    let io_used: IoSnapshot = io.snapshot() - io_before;
    rep.attempted = traced.lat_ms.len() as u64;
    rep.failed = traced.failed;
    if traced.answers != plain.answers {
        rep.correct = false;
    }
    let l = &traced.layers;
    let q = l.queries.max(1) as f64;
    let wall = traced.wall.as_secs_f64();
    rep.set("filter.busy_s", l.filter.as_secs_f64());
    rep.set("filter.nodes", l.nodes as f64);
    rep.set(
        "filter.ns_per_node",
        l.filter.as_nanos() as f64 / l.nodes.max(1) as f64,
    );
    rep.set("filter.blocks", l.blocks as f64);
    rep.set("filter.mass", l.mass / q);
    rep.set("refine.busy_s", l.refine.as_secs_f64());
    rep.set("refine.entries", l.entries as f64);
    rep.set("refine.matches", l.matches as f64);
    rep.set(
        "refine.match_ratio",
        l.matches as f64 / l.entries.max(1) as f64,
    );
    rep.set("pseudo_disk.load_s", l.load.as_secs_f64());
    rep.set("pseudo_disk.sections_loaded", l.sections_loaded as f64);
    rep.set("pseudo_disk.bytes_per_query", l.bytes_loaded as f64 / q);
    let probed = (l.sketch_skips + l.sections_loaded).max(1) as f64;
    rep.set("sketch.skip_ratio", l.sketch_skips as f64 / probed);
    rep.set("storage.reads", io_used.reads as f64);
    rep.set("storage.read_bytes", io_used.read_bytes as f64);
    rep.set("index.build_s", build.as_secs_f64());
    rep.set(
        "index.build_rps",
        inp.records.len() as f64 / build.as_secs_f64(),
    );
    rep.set("trace.wall_s", wall);
    rep.set("trace.overhead", wall / plain.wall.as_secs_f64() - 1.0);
    match engine {
        Engine::Disk => {
            let busy = l.filter + l.load + l.refine;
            rep.set("trace.coverage", busy.as_secs_f64() / wall);
        }
        Engine::Sharded => {
            rep.set("shard.busy_s", l.scatter.as_secs_f64());
            rep.set("shard.elapsed_p50_ms", median(&l.shard_ns) * 1e-6);
            rep.set("shard.hedges", l.hedges as f64);
            rep.set("shard.failovers", l.failovers as f64);
            rep.set("shard.overhead_ratio", wall / l.single.as_secs_f64());
            rep.set(
                "trace.coverage",
                (l.filter + l.scatter).as_secs_f64() / wall,
            );
        }
    }
    rep
}
