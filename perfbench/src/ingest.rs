//! `ingest`: writes beside reads. A `DurableIndex` on local files (data
//! pages plus WAL, default `DurableOptions`: fsync on every insert, merge
//! at a 10% overlay) starts from an archive-model base and ingests a stream
//! of newly registered recordings: pre-rendered frames →
//! `extract_fingerprints` → `DurableIndex::insert` under a fresh id per
//! recording, then a read-your-writes probe batch of that recording's
//! fingerprints through `DurableIndex::stat_query_batch`.

use crate::alloc;
use crate::common::{
    archive_seed, median, ms, per_op_min, quantile, splitmix, timed, Config, Report, ROUNDS,
};
use crate::counting::{Counting, IoCounts, IoSnapshot};
use crate::frames::FrameVideo;
use s3_bench::workload::{extracted_pool, FingerprintSampler};
use s3_core::{
    DiskIndex, DurableIndex, DurableOptions, FileRwStorage, IsotropicNormal, PageMeta, PageStore,
    RecordBatch, S3Index, StatQueryOpts,
};
use s3_hilbert::HilbertCurve;
use s3_video::{extract_fingerprints, ExtractorParams, ProceduralVideo, FINGERPRINT_DIMS};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ALPHA: f64 = 0.8;
const SIGMA: f64 = 15.0;
/// Bytes of one fingerprint record: descriptor, id and time-code.
const RECORD_BYTES: f64 = (FINGERPRINT_DIMS + 4 + 4) as f64;
/// Ids of ingested recordings start here, above every base-archive id.
const FIRST_ID: u32 = 1_000_000;

struct Inputs {
    base: RecordBatch,
    recordings: Vec<FrameVideo>,
    probes: usize,
    mem_budget: u64,
}

fn inputs(cfg: &Config) -> Inputs {
    let s = cfg.scale;
    let pool = extracted_pool(s.pick(4, 2), 60, archive_seed(0x20));
    let base = FingerprintSampler::new(pool, 20.0, archive_seed(0x21)).batch(s.pick(20_000, 2_000));
    // Recordings per round, sized so that rendering them, the gate round
    // and the timed rounds take about `--seconds` on the reference host.
    let per_round = cfg.seconds / 0.13 / ROUNDS as f64;
    let (n, frames) = s.pick(((per_round.round() as u64).max(2), 50), (3, 30));
    // A fixed library of recordings, registered in a seeded order: with
    // seeded recordings the extraction and insert volume moved from seed to
    // seed.
    let mut order: Vec<u64> = (0..n).collect();
    order.sort_by_key(|&i| splitmix(cfg.sub_seed(0x31) ^ i));
    let recordings = order
        .into_iter()
        .map(|i| {
            FrameVideo::render(&ProceduralVideo::new(
                96,
                72,
                frames,
                archive_seed(0x30 + i),
            ))
        })
        .collect();
    Inputs {
        base,
        recordings,
        probes: 2,
        mem_budget: s.pick(1 << 20, 64 << 10),
    }
}

/// An opened durable index with the counters of its two files.
struct Store {
    index: DurableIndex,
    dir: PathBuf,
    data_io: Arc<IoCounts>,
    wal_io: Arc<IoCounts>,
}

fn open_files(dir: &Path, data_io: &Arc<IoCounts>, wal_io: &Arc<IoCounts>) -> DurableIndex {
    let data = FileRwStorage::open(dir.join("index.pages")).expect("open data file");
    let wal = FileRwStorage::open(dir.join("index.wal")).expect("open wal");
    DurableIndex::open(
        Box::new(Counting::new(data, Arc::clone(data_io))),
        Box::new(Counting::new(wal, Arc::clone(wal_io))),
        DurableOptions::default(),
    )
    .expect("open durable index")
}

/// The program's set-up: build the base archive, lay it out as the paged
/// data file `DurableIndex::create` would write for it, and open it.
/// Returns the store and the index build time.
fn setup(dir: &Path, base: &RecordBatch) -> (Store, Duration) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create ingest dir");
    let opts = DurableOptions::default();
    let t0 = Instant::now();
    let index = S3Index::build(HilbertCurve::paper(), base.clone());
    let build = t0.elapsed();
    let bytes = DiskIndex::encode_to_vec(&index, opts.write_opts).expect("encode base");
    let pages = PageStore::create(
        FileRwStorage::open(dir.join("index.pages")).expect("create data file"),
        opts.page_size,
    )
    .expect("format data file");
    let cap = pages.payload_capacity();
    for (i, chunk) in bytes.chunks(cap).enumerate() {
        pages
            .write_page(i as u64 + 1, 0, chunk)
            .expect("write page");
    }
    pages
        .set_meta(PageMeta {
            page_size: opts.page_size,
            data_len: bytes.len() as u64,
            n_pages: bytes.len().div_ceil(cap) as u64,
            generation: 0,
            checkpoint_lsn: 0,
        })
        .expect("write meta");
    pages.sync().expect("sync data file");
    drop(pages);
    let (data_io, wal_io) = (Arc::default(), Arc::default());
    let index = open_files(dir, &data_io, &wal_io);
    assert_eq!(index.len(), base.len() as u64, "base archive opens whole");
    (
        Store {
            index,
            dir: dir.to_path_buf(),
            data_io,
            wal_io,
        },
        build,
    )
}

#[derive(Default)]
struct Cycle {
    records: usize,
    frames: usize,
    /// Every operation in order: each recording's extraction, its inserts,
    /// its probe batch.
    op_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    /// Peak live heap bytes during each insert.
    insert_peaks: Vec<usize>,
    probes: usize,
    found: usize,
    failed: u64,
    wall: Duration,
    extract: Duration,
    insert: Duration,
    merge: Duration,
    merges: usize,
    query: Duration,
    filter: Duration,
    load: Duration,
    refine: Duration,
    nodes: usize,
    blocks: usize,
    mass: f64,
    entries: usize,
    matches: usize,
    sections_loaded: usize,
    sketch_skips: usize,
    bytes_loaded: u64,
}

/// Ingests every recording in order, ids from [`FIRST_ID`].
fn cycle(st: &mut Store, inp: &Inputs) -> Cycle {
    let params = ExtractorParams::default();
    let model = IsotropicNormal::new(FINGERPRINT_DIMS, SIGMA);
    let mut c = Cycle::default();
    let start = Instant::now();
    for (k, video) in inp.recordings.iter().enumerate() {
        let id = FIRST_ID + k as u32;
        let t0 = Instant::now();
        let fps = extract_fingerprints(video, &params);
        let dt = t0.elapsed();
        c.extract += dt;
        c.op_ms.push(ms(dt));
        c.frames += video.frames().len();
        for f in &fps {
            let merges = st.index.merges();
            let t0 = Instant::now();
            let (res, peak) = alloc::peak_during(|| st.index.insert(&f.fingerprint, id, f.tc));
            let dt = t0.elapsed();
            c.insert_peaks.push(peak);
            c.insert_ms.push(ms(dt));
            c.op_ms.push(ms(dt));
            if st.index.merges() > merges {
                c.merge += dt;
                c.merges += 1;
            } else {
                c.insert += dt;
            }
            match res {
                Ok(()) => c.records += 1,
                Err(e) => {
                    eprintln!("insert failed: {e}");
                    c.failed += 1;
                }
            }
        }
        // Read-your-writes: probes spread over the recording.
        let step = (fps.len() / inp.probes).max(1);
        let probes: Vec<_> = fps.iter().step_by(step).take(inp.probes).collect();
        let q: Vec<&[u8]> = probes.iter().map(|f| f.fingerprint.as_slice()).collect();
        let opts = StatQueryOpts::for_db_size(ALPHA, st.index.len() as usize);
        let t0 = Instant::now();
        let res = st.index.stat_query_batch(&q, &model, &opts, inp.mem_budget);
        let dt = t0.elapsed();
        c.query += dt;
        c.op_ms.push(ms(dt));
        c.probes += probes.len();
        match res {
            Ok(b) => {
                if b.timing.degraded {
                    c.failed += 1;
                }
                for (p, m) in probes.iter().zip(&b.matches) {
                    if m.iter().any(|m| m.id == id && m.tc == p.tc) {
                        c.found += 1;
                    }
                }
                let t = &b.timing;
                c.filter += t.filter;
                c.load += t.load;
                c.refine += t.refine;
                c.sections_loaded += t.sections_loaded;
                c.sketch_skips += t.sketch_skips;
                c.bytes_loaded += t.bytes_loaded;
                for (s, m) in b.stats.iter().zip(&b.matches) {
                    c.nodes += s.nodes_expanded;
                    c.blocks += s.blocks_selected;
                    c.mass += s.mass;
                    c.entries += s.entries_scanned;
                    c.matches += m.len();
                }
            }
            Err(e) => {
                eprintln!("probe batch failed: {e}");
                c.failed += 1;
            }
        }
    }
    c.wall = start.elapsed();
    c
}

fn io(st: &Store) -> (IoSnapshot, IoSnapshot) {
    (st.data_io.snapshot(), st.wal_io.snapshot())
}

/// Closes the store and reopens its files, running WAL recovery. Returns
/// the recovered record count and the time `DurableIndex::open` took.
fn reopen(st: Store) -> (u64, Duration) {
    let Store {
        index,
        dir,
        data_io,
        wal_io,
    } = st;
    drop(index);
    let t0 = Instant::now();
    let reopened = open_files(&dir, &data_io, &wal_io);
    (reopened.len(), t0.elapsed())
}

pub fn run(cfg: &Config) -> Report {
    let inp = inputs(cfg);
    let baseline = alloc::live();
    let round_dir = |r: usize| cfg.work_dir.join(format!("ingest-r{r}"));
    let ((st, build), first_setup_s) = timed(|| setup(&round_dir(0), &inp.base));

    // Gate: one untimed cycle on its own copy; every probe must read its
    // own writes, and a reopen must recover every acknowledged record.
    let (mut gate_st, _) = setup(&cfg.work_dir.join("ingest-gate"), &inp.base);
    let gate = cycle(&mut gate_st, &inp);
    let recovered = reopen(gate_st).0 == inp.base.len() as u64 + gate.records as u64;
    let mut rep = Report {
        correct: gate.failed == 0 && gate.found == gate.probes && recovered,
        ..Report::default()
    };
    eprintln!(
        "ingest: base {} records, {} recordings ({} records), gate: {}/{} probes read their writes, {} merges, reopen {}",
        inp.base.len(),
        inp.recordings.len(),
        gate.records,
        gate.found,
        gate.probes,
        gate.merges,
        if recovered { "recovers all" } else { "LOST RECORDS" }
    );

    if !cfg.trace {
        // Each round runs on a fresh set-up of the same starting state, so
        // every round runs the same operations (merges included) in order.
        let mut setups = vec![first_setup_s];
        let mut rounds = Vec::with_capacity(ROUNDS);
        let mut st = st;
        for r in 0..ROUNDS {
            rounds.push(cycle(&mut st, &inp));
            if r + 1 < ROUNDS {
                let ((fresh, _), t) = timed(|| setup(&round_dir(r + 1), &inp.base));
                setups.push(t);
                st = fresh;
            }
        }
        for c in &rounds {
            rep.failed += c.failed;
            rep.correct &= c.found == c.probes;
        }
        let op_ms = per_op_min(rounds.iter().map(|c| &c.op_ms[..]));
        let insert_ms = per_op_min(rounds.iter().map(|c| &c.insert_ms[..]));
        rep.attempted = (ROUNDS * insert_ms.len()) as u64;
        rep.set("setup_s", median(&setups));
        rep.set(
            "mem_mb",
            alloc::median_mb(&rounds[0].insert_peaks, baseline),
        );
        rep.set("recall", rounds[0].found as f64 / rounds[0].probes as f64);
        rep.set(
            "rate_per_s",
            rounds[0].records as f64 / (op_ms.iter().sum::<f64>() * 1e-3),
        );
        rep.set("op_p50_ms", median(&insert_ms));
        return rep;
    }

    // Traced: one cycle on a fresh copy of the starting state; the gate
    // cycle, untraced from the same state, is the reference for the
    // tracing overhead.
    let (mut tst, _) = setup(&cfg.work_dir.join("ingest-b"), &inp.base);
    let (data0, wal0) = io(&tst);
    let c = cycle(&mut tst, &inp);
    let (data1, wal1) = io(&tst);
    let (data, wal) = (data1 - data0, wal1 - wal0);
    let (recovered, recover) = reopen(tst);
    rep.correct &= recovered == inp.base.len() as u64 + c.records as u64 && c.found == c.probes;

    rep.attempted = c.insert_ms.len() as u64;
    rep.failed = c.failed;
    let q = c.probes.max(1) as f64;
    let wall = c.wall.as_secs_f64();
    rep.set("video.extract_s", c.extract.as_secs_f64());
    rep.set(
        "video.frames_per_s",
        c.frames as f64 / c.extract.as_secs_f64(),
    );
    rep.set("video.fingerprints", c.records as f64);
    rep.set("durable.insert_s", c.insert.as_secs_f64());
    rep.set("durable.merge_s", c.merge.as_secs_f64());
    rep.set("durable.merges", c.merges as f64);
    rep.set("durable.query_s", c.query.as_secs_f64());
    rep.set("durable.recover_s", recover.as_secs_f64());
    rep.set("durable.insert_p99_us", quantile(&c.insert_ms, 0.99) * 1e3);
    rep.set(
        "durable.write_amp",
        (data.write_bytes + wal.write_bytes) as f64 / (c.records as f64 * RECORD_BYTES),
    );
    rep.set("wal.write_bytes", wal.write_bytes as f64);
    rep.set("wal.syncs", wal.syncs as f64);
    rep.set("pager.write_bytes", data.write_bytes as f64);
    rep.set("storage.reads", (data.reads + wal.reads) as f64);
    rep.set(
        "storage.read_bytes",
        (data.read_bytes + wal.read_bytes) as f64,
    );
    rep.set("filter.busy_s", c.filter.as_secs_f64());
    rep.set("filter.nodes", c.nodes as f64);
    rep.set(
        "filter.ns_per_node",
        c.filter.as_nanos() as f64 / c.nodes.max(1) as f64,
    );
    rep.set("filter.blocks", c.blocks as f64);
    rep.set("filter.mass", c.mass / q);
    rep.set("refine.busy_s", c.refine.as_secs_f64());
    rep.set("refine.entries", c.entries as f64);
    rep.set("refine.matches", c.matches as f64);
    rep.set(
        "refine.match_ratio",
        c.matches as f64 / c.entries.max(1) as f64,
    );
    rep.set("pseudo_disk.load_s", c.load.as_secs_f64());
    rep.set("pseudo_disk.sections_loaded", c.sections_loaded as f64);
    rep.set("pseudo_disk.bytes_per_query", c.bytes_loaded as f64 / q);
    let probed = (c.sketch_skips + c.sections_loaded).max(1) as f64;
    rep.set("sketch.skip_ratio", c.sketch_skips as f64 / probed);
    rep.set("index.build_s", build.as_secs_f64());
    rep.set(
        "index.build_rps",
        inp.base.len() as f64 / build.as_secs_f64(),
    );
    rep.set("trace.wall_s", wall);
    rep.set(
        "trace.coverage",
        (c.extract + c.insert + c.merge + c.query).as_secs_f64() / wall,
    );
    rep.set("trace.overhead", wall / gate.wall.as_secs_f64() - 1.0);
    rep
}
