//! Golden bit-identity test of the best-first filter on the paper's space.
//!
//! The cached-vs-uncached property test compares two runs of the same
//! descent, so a change to the descent itself (heap layout, pop order, tie
//! order) would go unnoticed there. This test pins the outcome of
//! `select_blocks_best_first` over `HilbertCurve::paper()` (20-D, order 8)
//! to CRC-32 digests recorded from a known-good build: every selected
//! block's curve rank, every score's and the total mass's f64 bit pattern,
//! the expanded-node count and the truncation flag.
//!
//! A legitimate change of the filter's answers must re-record the digests
//! (run the test and copy the `got` values it prints); any other mismatch
//! is a regression.

use s3_core::crc::Crc32;
use s3_core::filter::{select_blocks_best_first, FilterOutcome};
use s3_core::IsotropicNormal;
use s3_hilbert::HilbertCurve;

/// Deterministic interior query: bytes in `64..192`, away from the cube's
/// faces so almost no mass is clamped.
fn interior_query(seed: u64) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..20)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            64 + (s % 128) as u8
        })
        .collect()
}

/// A query at the cube's corner: most of its distortion mass falls outside
/// the grid, so α is clamped to the achievable root mass.
fn corner_query() -> Vec<u8> {
    (0..20).map(|d| if d % 2 == 0 { 0 } else { 255 }).collect()
}

/// Every coordinate equal: the per-axis factors coincide across axes, so
/// the descent meets many equal-mass siblings and exercises tie order.
fn uniform_query() -> Vec<u8> {
    vec![100; 20]
}

/// Four coordinates on the cube's faces, the rest interior: α is clamped
/// to a root mass near 1/16 that still takes many blocks to cover.
fn face_query() -> Vec<u8> {
    let mut q = interior_query(4);
    q[..2].fill(0);
    q[2..4].fill(255);
    q
}

fn digest(out: &FilterOutcome) -> u32 {
    let mut h = Crc32::new();
    for sb in &out.blocks {
        for limb in sb.block.curve_rank().limbs() {
            h.update(&limb.to_le_bytes());
        }
        h.update(&sb.score.to_bits().to_le_bytes());
    }
    h.update(&out.mass.to_bits().to_le_bytes());
    h.update(&(out.nodes_expanded as u64).to_le_bytes());
    h.update(&[u8::from(out.truncated)]);
    h.finalize()
}

struct Case {
    name: &'static str,
    sigma: f64,
    depth: u32,
    alpha: f64,
    max_blocks: usize,
    query: fn() -> Vec<u8>,
    want: u32,
}

const UNBOUNDED: usize = 1 << 16;

#[rustfmt::skip]
const CASES: &[Case] = &[
    Case { name: "interior_a_s10_d12", sigma: 10.0, depth: 12, alpha: 0.9, max_blocks: UNBOUNDED, query: || interior_query(1), want: 0x487b74b0 },
    Case { name: "interior_a_s10_d16", sigma: 10.0, depth: 16, alpha: 0.9, max_blocks: UNBOUNDED, query: || interior_query(1), want: 0xb872eee7 },
    Case { name: "interior_a_s10_d20", sigma: 10.0, depth: 20, alpha: 0.9, max_blocks: UNBOUNDED, query: || interior_query(1), want: 0x652c1420 },
    Case { name: "interior_a_s20_d12", sigma: 20.0, depth: 12, alpha: 0.9, max_blocks: UNBOUNDED, query: || interior_query(1), want: 0xc2bb5bf5 },
    Case { name: "interior_a_s20_d16", sigma: 20.0, depth: 16, alpha: 0.9, max_blocks: UNBOUNDED, query: || interior_query(1), want: 0x791f4cc7 },
    Case { name: "interior_a_s20_d20", sigma: 20.0, depth: 20, alpha: 0.9, max_blocks: UNBOUNDED, query: || interior_query(1), want: 0x95c9f900 },
    Case { name: "interior_b_s10_d12", sigma: 10.0, depth: 12, alpha: 0.95, max_blocks: UNBOUNDED, query: || interior_query(2), want: 0x3696c16b },
    Case { name: "interior_b_s10_d16", sigma: 10.0, depth: 16, alpha: 0.95, max_blocks: UNBOUNDED, query: || interior_query(2), want: 0xf3e8b712 },
    Case { name: "interior_b_s10_d20", sigma: 10.0, depth: 20, alpha: 0.95, max_blocks: UNBOUNDED, query: || interior_query(2), want: 0x1b5e48dc },
    Case { name: "interior_b_s20_d12", sigma: 20.0, depth: 12, alpha: 0.95, max_blocks: UNBOUNDED, query: || interior_query(2), want: 0xe64a52ad },
    Case { name: "interior_b_s20_d16", sigma: 20.0, depth: 16, alpha: 0.95, max_blocks: UNBOUNDED, query: || interior_query(2), want: 0xe6c99278 },
    Case { name: "interior_b_s20_d20", sigma: 20.0, depth: 20, alpha: 0.95, max_blocks: UNBOUNDED, query: || interior_query(2), want: 0x45b5a6c1 },
    Case { name: "uniform_s10_d12", sigma: 10.0, depth: 12, alpha: 0.9, max_blocks: UNBOUNDED, query: uniform_query, want: 0xcd574bb1 },
    Case { name: "uniform_s10_d16", sigma: 10.0, depth: 16, alpha: 0.9, max_blocks: UNBOUNDED, query: uniform_query, want: 0xe1ca2881 },
    Case { name: "uniform_s10_d20", sigma: 10.0, depth: 20, alpha: 0.9, max_blocks: UNBOUNDED, query: uniform_query, want: 0x6b55aa05 },
    Case { name: "uniform_s20_d12", sigma: 20.0, depth: 12, alpha: 0.9, max_blocks: UNBOUNDED, query: uniform_query, want: 0xa2c27f11 },
    Case { name: "uniform_s20_d16", sigma: 20.0, depth: 16, alpha: 0.9, max_blocks: UNBOUNDED, query: uniform_query, want: 0x3edd3727 },
    Case { name: "uniform_s20_d20", sigma: 20.0, depth: 20, alpha: 0.9, max_blocks: UNBOUNDED, query: uniform_query, want: 0xbddd1bb4 },
    Case { name: "corner_s10_d12", sigma: 10.0, depth: 12, alpha: 0.9, max_blocks: UNBOUNDED, query: corner_query, want: 0x0bfce704 },
    Case { name: "corner_s10_d16", sigma: 10.0, depth: 16, alpha: 0.9, max_blocks: UNBOUNDED, query: corner_query, want: 0x4dc8ccc7 },
    Case { name: "corner_s10_d20", sigma: 10.0, depth: 20, alpha: 0.9, max_blocks: UNBOUNDED, query: corner_query, want: 0xdc2d37ab },
    Case { name: "corner_s20_d12", sigma: 20.0, depth: 12, alpha: 0.9, max_blocks: UNBOUNDED, query: corner_query, want: 0xdbc6fd05 },
    Case { name: "corner_s20_d16", sigma: 20.0, depth: 16, alpha: 0.9, max_blocks: UNBOUNDED, query: corner_query, want: 0x530bbfbf },
    Case { name: "corner_s20_d20", sigma: 20.0, depth: 20, alpha: 0.9, max_blocks: UNBOUNDED, query: corner_query, want: 0xadecbf55 },
    Case { name: "face_s10_d12", sigma: 10.0, depth: 12, alpha: 0.9, max_blocks: UNBOUNDED, query: face_query, want: 0x818badf2 },
    Case { name: "face_s10_d16", sigma: 10.0, depth: 16, alpha: 0.9, max_blocks: UNBOUNDED, query: face_query, want: 0xcd70576b },
    Case { name: "face_s10_d20", sigma: 10.0, depth: 20, alpha: 0.9, max_blocks: UNBOUNDED, query: face_query, want: 0xa6a5991e },
    Case { name: "face_s20_d12", sigma: 20.0, depth: 12, alpha: 0.9, max_blocks: UNBOUNDED, query: face_query, want: 0x14519e21 },
    Case { name: "face_s20_d16", sigma: 20.0, depth: 16, alpha: 0.9, max_blocks: UNBOUNDED, query: face_query, want: 0x9d7d8fcb },
    Case { name: "face_s20_d20", sigma: 20.0, depth: 20, alpha: 0.9, max_blocks: UNBOUNDED, query: face_query, want: 0x2c243a6c },
    Case { name: "truncated_s10_d16", sigma: 10.0, depth: 16, alpha: 0.95, max_blocks: 8, query: || interior_query(3), want: 0x48f0c979 },
    Case { name: "truncated_s20_d20", sigma: 20.0, depth: 20, alpha: 0.95, max_blocks: 256, query: || interior_query(3), want: 0x944f1254 },
];

#[test]
fn best_first_outcomes_match_recorded_digests() {
    let curve = HilbertCurve::paper();
    let mut mismatches = Vec::new();
    for c in CASES {
        let model = IsotropicNormal::new(20, c.sigma);
        let out =
            select_blocks_best_first(&curve, &model, &(c.query)(), c.depth, c.alpha, c.max_blocks);
        if c.max_blocks < UNBOUNDED {
            assert!(out.truncated, "{}: budget must truncate", c.name);
            assert_eq!(out.blocks.len(), c.max_blocks, "{}", c.name);
        } else {
            assert!(!out.truncated, "{}: must reach the clamped α", c.name);
        }
        let got = digest(&out);
        if got != c.want {
            mismatches.push(format!(
                "{}: want {:#010x} got {got:#010x} ({} blocks, {} nodes)",
                c.name,
                c.want,
                out.blocks.len(),
                out.nodes_expanded
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digest mismatches:\n{}",
        mismatches.join("\n")
    );
}
