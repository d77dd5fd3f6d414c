//! Golden digests of the GVN fixed point.
//!
//! Each digest is FNV-1a over every routine's `GvnResults` for a fixed
//! generated corpus: the class of every value, the leader of that class
//! (constant or value), both reachable sets, and every `GvnStats` counter.
//! The digests were taken before the driver's hot loop stopped cloning
//! and before the interner and linear forms changed representation; any
//! change to a partition, a leader election, reachability, or a counter
//! (interner hits and misses included) shows up here.

use pgvn::core::{run_in_context, GvnConfig, GvnContext, GvnResults, Mode, Variant};
use pgvn::ir::{Block, Edge, EntityRef, Function, Value};
use pgvn::lang::{compile, print_routine};
use pgvn::ssa::SsaStyle;
use pgvn::workload::{generate_routine, GenConfig};

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// 150 default-config and 15 large-config generated routines in pruned
/// SSA, the same corpus the front-end golden digest uses.
fn corpus() -> Vec<Function> {
    let default = (0..150).map(|seed| GenConfig { seed, ..GenConfig::default() });
    let large = (0..15).map(|seed| GenConfig {
        seed: 10_000 + seed,
        target_stmts: 300,
        max_depth: 5,
        ..GenConfig::default()
    });
    default
        .chain(large)
        .enumerate()
        .map(|(i, cfg)| {
            let src = print_routine(&generate_routine(&format!("r{i}"), &cfg));
            compile(&src, SsaStyle::Pruned).expect("generated routines compile")
        })
        .collect()
}

fn digest_results(h: &mut u64, f: &Function, r: &GvnResults) {
    fnv1a(h, r.stats.to_json().as_bytes());
    fnv1a(h, &(r.num_congruence_classes() as u64).to_le_bytes());
    for i in 0..f.value_capacity() {
        let v = Value::new(i);
        let leader = match (r.constant_value(v), r.leader_value(v)) {
            (Some(k), _) => format!("k{k}"),
            (None, Some(l)) => format!("{l}"),
            (None, None) => "_".to_string(),
        };
        fnv1a(h, format!("{}={leader};", r.class_of(v)).as_bytes());
    }
    for i in 0..f.block_capacity() {
        fnv1a(h, &[u8::from(r.is_block_reachable(Block::new(i)))]);
    }
    for i in 0..f.edge_capacity() {
        fnv1a(h, &[u8::from(r.is_edge_reachable(Edge::new(i)))]);
    }
}

/// One warm context serves the whole corpus, so the digest also covers
/// run-to-run reuse of every scratch buffer.
fn corpus_digest(funcs: &[Function], cfg: &GvnConfig) -> u64 {
    let mut ctx = GvnContext::new();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in funcs {
        let r = run_in_context(&mut ctx, f, cfg);
        digest_results(&mut h, f, &r);
    }
    h
}

#[test]
fn gvn_results_match_the_golden_digest_in_every_config() {
    let funcs = corpus();
    let mut want: Vec<(String, GvnConfig, u64)> = vec![
        ("extended".into(), GvnConfig::extended(), 0xa5bd_5801_6047_b60f),
        ("click".into(), GvnConfig::click(), 0x2d79_248b_5155_6a19),
        ("awz".into(), GvnConfig::awz(), 0xd066_cacc_4f14_7d25),
        ("sccp".into(), GvnConfig::sccp(), 0x8300_ee58_146e_0a00),
        ("basic".into(), GvnConfig::basic(), 0x2d79_248b_5155_6a19),
    ];
    // `full` is the optimistic/practical cell.
    let full = [
        (Mode::Optimistic, Variant::Practical, 0xa66a_5c99_8521_eb2b),
        (Mode::Optimistic, Variant::Complete, 0x2cd0_0237_5206_cbab),
        (Mode::Balanced, Variant::Practical, 0x9507_529d_be30_bbea),
        (Mode::Balanced, Variant::Complete, 0xd8af_103f_3ed8_38ee),
        (Mode::Pessimistic, Variant::Practical, 0x42ae_b493_c84e_1590),
        (Mode::Pessimistic, Variant::Complete, 0x42ae_b493_c84e_1590),
    ];
    for (mode, variant, digest) in full {
        let cfg = GvnConfig::full().mode(mode).variant(variant);
        want.push((format!("full/{mode:?}/{variant:?}"), cfg, digest));
    }
    let mut failures = Vec::new();
    for (name, cfg, digest) in &want {
        let got = corpus_digest(&funcs, cfg);
        if got != *digest {
            failures.push(format!("{name}: got {got:#018x}, want {digest:#018x}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
