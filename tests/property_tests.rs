//! Property-based tests on the core invariants.
//!
//! Runs on the in-repo harness (`sampsim::util::prop`) — the offline
//! build has no `proptest` — behind the `property-tests` feature so the
//! randomized volume stays out of the default `cargo test` path.
//! `scripts/check.sh` runs it on every gate:
//!
//! ```text
//! cargo test --features property-tests --test property_tests
//! ```

use sampsim::analyze::predicted_instructions;
use sampsim::cache::{CacheStats, HierarchyStats};
use sampsim::core::metrics::{aggregate_weighted, RunMetrics};
use sampsim::core::plan::plan_strategy;
use sampsim::core::PinPointsConfig;
use sampsim::exec::SERIAL;
use sampsim::pin::tools::MixCounts;
use sampsim::pinball::{Logger, RegionalPinball};
use sampsim::simpoint::bbv::Bbv;
use sampsim::simpoint::kmeans::kmeans;
use sampsim::simpoint::select::{reduce_to_percentile, SimPoint};
use sampsim::simpoint::StrategySpec;
use sampsim::util::codec;
use sampsim::util::prop::{run_cases, Gen};
use sampsim::workload::spec::{InterleaveSpec, Mix, PhaseSpec, StreamGen, WorkloadSpec};
use sampsim::workload::{Cursor, Executor, MemClass, Program};

/// Checkpoint/resume at ANY instruction boundary is bit-exact.
#[test]
fn checkpoint_resume_bit_exact() {
    run_cases("checkpoint-resume", 24, |g| {
        let program = program_for(g.u64_in(0..500));
        let split = g.u64_in(1..20_000) % program.total_insts().max(2);
        let mut reference = Executor::new(&program);
        reference.skip(split);
        let cursor = reference.cursor();
        let bytes = codec::to_bytes(&cursor);
        let decoded: Cursor = codec::from_bytes(&bytes).unwrap();
        let mut resumed = Executor::with_cursor(&program, decoded);
        for _ in 0..1_000 {
            assert_eq!(resumed.next_inst(), reference.next_inst());
        }
    });
}

/// Slice-start cursors partition the execution exactly.
#[test]
fn slice_starts_partition_execution() {
    run_cases("slice-starts-partition", 24, |g| {
        let program = program_for(g.u64_in(0..500));
        let slice = g.u64_in(100..5_000);
        let starts = Logger::new(&program).slice_starts(slice);
        let expected = program.total_insts().div_ceil(slice);
        assert_eq!(starts.len() as u64, expected);
        for (i, c) in starts.iter().enumerate() {
            assert_eq!(c.retired, i as u64 * slice);
        }
    });
}

/// A regional pinball roundtrips through the codec losslessly.
#[test]
fn pinball_codec_roundtrip() {
    run_cases("pinball-roundtrip", 24, |g| {
        let program = program_for(g.u64_in(0..500));
        let starts = Logger::new(&program).slice_starts(1_000);
        let idx = g.usize_in(0..10) % starts.len();
        let pb = RegionalPinball::new(&program, idx as u64, starts[idx].clone(), 1_000, 0.5, 1);
        let bytes = codec::to_bytes(&pb);
        let back: RegionalPinball = codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, pb);
    });
}

/// k-means invariants: assignments in range, inertia non-negative,
/// cluster sizes summing to n.
#[test]
fn kmeans_invariants() {
    run_cases("kmeans-invariants", 24, |g| {
        let seed = g.u64_in(0..200);
        let n = g.usize_in(10..80);
        let k = g.usize_in(1..8);
        let mut rng = sampsim::util::rng::Xoshiro256StarStar::seed_from_u64(seed);
        let dim = 3;
        let data: Vec<f64> = (0..n * dim).map(|_| rng.next_f64() * 10.0).collect();
        let r = kmeans(&data, n, dim, k, 50, seed).unwrap();
        assert!(r.inertia >= 0.0);
        assert_eq!(r.assignments.len(), n);
        assert!(r.assignments.iter().all(|&a| (a as usize) < r.k));
        let sizes = r.cluster_sizes();
        assert_eq!(sizes.iter().sum::<u64>(), n as u64);
    });
}

/// The bounds-pruned k-means kernel is bit-identical to the naive
/// reference — assignments, centroids, inertia, iteration count — across
/// random seeds, shapes and iteration caps, including duplicate-heavy
/// data that forces duplicate centroids and empty-cluster reseeds.
#[test]
fn pruned_kmeans_matches_reference_bitwise() {
    use sampsim::simpoint::reference::kmeans_reference;
    run_cases("pruned-kmeans-bitwise", 48, |g| {
        // Up to 40 clusters (one to five blocks of eight, exactly 8, 16
        // and 32 among them), up to 300 points (every point-block tail)
        // and up to 16 dimensions.
        let n = g.usize_in(4..301);
        let dim = g.usize_in(1..17);
        let k = g.usize_in(1..41);
        let max_iter = g.u64_in(0..80) as u32;
        let seed = g.u64_in(0..10_000);
        let mut rng = sampsim::util::rng::Xoshiro256StarStar::seed_from_u64(seed);
        let data: Vec<f64> = if g.chance(0.4) {
            // A handful of distinct points, many exact copies: duplicate
            // centroids (half-distance 0) and, for k above the distinct
            // count, empty-cluster reseeds.
            let distinct = g.usize_in(1..4);
            let protos: Vec<f64> = (0..distinct * dim).map(|_| rng.next_f64() * 10.0).collect();
            (0..n)
                .flat_map(|i| {
                    let p = i % distinct;
                    protos[p * dim..(p + 1) * dim].to_vec()
                })
                .collect()
        } else {
            (0..n * dim).map(|_| rng.next_f64() * 10.0 - 5.0).collect()
        };
        let pruned = kmeans(&data, n, dim, k, max_iter, seed).unwrap();
        let naive = kmeans_reference(&data, n, dim, k, max_iter, seed).unwrap();
        assert_eq!(pruned.k, naive.k, "k");
        assert_eq!(pruned.iterations, naive.iterations, "iterations");
        assert_eq!(pruned.assignments, naive.assignments, "assignments");
        assert_eq!(
            pruned.inertia.to_bits(),
            naive.inertia.to_bits(),
            "inertia {} vs {}",
            pruned.inertia,
            naive.inertia
        );
        assert_eq!(pruned.centroids.len(), naive.centroids.len());
        for (a, b) in pruned.centroids.iter().zip(&naive.centroids) {
            assert_eq!(a.to_bits(), b.to_bits(), "centroid {a} vs {b}");
        }
        assert_eq!(pruned.cluster_sizes(), naive.cluster_sizes());
    });
}

/// The sparse batched projection is bit-identical to projecting a dense
/// per-slice vector through the same matrix, normalized and raw.
#[test]
fn sparse_projection_matches_dense_bitwise() {
    use sampsim::simpoint::project::RandomProjection;
    use sampsim::simpoint::reference::project_dense_reference;
    run_cases("sparse-projection-bitwise", 48, |g| {
        let dim = g.usize_in(1..20);
        let seed = g.u64_in(0..10_000);
        let nbbv = g.usize_in(1..16);
        let bbvs: Vec<Bbv> = (0..nbbv)
            .map(|_| {
                let mut counts = g.vec_of(0..30, |g| {
                    (g.u64_in(0..600) as u32, g.u64_in(1..100) as u32)
                });
                counts.sort_by_key(|&(b, _)| b);
                counts.dedup_by_key(|&mut (b, _)| b);
                Bbv::from_counts(counts)
            })
            .collect();
        let projection = RandomProjection::new(dim, seed);
        let num_blocks = bbvs
            .iter()
            .filter_map(Bbv::max_block)
            .max()
            .map_or(0, |m| m + 1);
        let batch = projection.project_all_normalized(&bbvs);
        assert_eq!(batch.len(), nbbv * dim);
        for (i, bbv) in bbvs.iter().enumerate() {
            let dense = project_dense_reference(&projection, &bbv.normalized(), num_blocks);
            for (a, b) in batch[i * dim..(i + 1) * dim].iter().zip(&dense) {
                assert_eq!(a.to_bits(), b.to_bits(), "normalized {a} vs {b}");
            }
            let sparse_raw = projection.project(bbv);
            let dense_raw = project_dense_reference(&projection, bbv, num_blocks);
            for (a, b) in sparse_raw.iter().zip(&dense_raw) {
                assert_eq!(a.to_bits(), b.to_bits(), "raw {a} vs {b}");
            }
        }
    });
}

/// Percentile reduction keeps weights normalized, returns a subset, is
/// monotone in the percentile, and the kept points' *original* weight
/// never exceeds the original total (it covers at least the requested
/// percentile of it and at most all of it).
#[test]
fn reduction_invariants() {
    run_cases("reduction-invariants", 32, |g| {
        let weights = g.vec_of(1..30, |g| g.f64_in(0.01..1.0));
        let total: f64 = weights.iter().sum();
        let points: Vec<SimPoint> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| SimPoint {
                slice: i as u64,
                cluster: i as u32,
                weight: w / total,
            })
            .collect();
        let p50 = reduce_to_percentile(&points, 0.5);
        let p90 = reduce_to_percentile(&points, 0.9);
        let p100 = reduce_to_percentile(&points, 1.0);
        assert!(p50.len() <= p90.len());
        assert!(p90.len() <= p100.len());
        assert_eq!(p100.len(), points.len());
        for (percentile, reduced) in [(0.5, &p50), (0.9, &p90), (1.0, &p100)] {
            let w: f64 = reduced.iter().map(|p| p.weight).sum();
            assert!((w - 1.0).abs() < 1e-9, "renormalized sum {w}");
            // The reduced set's ORIGINAL mass never exceeds the original
            // total, and covers at least the requested percentile of it.
            let original: f64 = reduced
                .iter()
                .map(|p| {
                    points
                        .iter()
                        .find(|q| q.slice == p.slice)
                        .expect("reduced point must be an original point")
                        .weight
                })
                .sum();
            assert!(original <= 1.0 + 1e-9, "kept mass {original} grew");
            assert!(
                original >= percentile - 1e-9,
                "kept mass {original} misses the {percentile} target"
            );
        }
    });
}

/// Normalized BBVs have unit L1 norm and distances bounded by 2.
#[test]
fn bbv_norm_bounds() {
    run_cases("bbv-norm-bounds", 32, |g| {
        let counts = g.vec_of(1..40, |g| {
            (g.u64_in(0..500) as u32, g.u64_in(1..1_000) as u32)
        });
        let mut sorted = counts;
        sorted.sort_by_key(|&(b, _)| b);
        sorted.dedup_by_key(|&mut (b, _)| b);
        let a = Bbv::from_counts(sorted).normalized();
        assert!((a.l1_norm() - 1.0).abs() < 1e-9);
        let b = Bbv::from_counts(vec![(1000, 1)]).normalized();
        let d = a.manhattan(&b);
        assert!((0.0..=2.0 + 1e-9).contains(&d));
    });
}

/// An arbitrary region for the aggregation properties: a plausible mix,
/// consistent cache counters, positive instruction count.
fn arb_region(g: &mut Gen) -> RunMetrics {
    let insts = g.u64_in(50..5_000);
    let mut mix = MixCounts::new();
    let classes = [
        MemClass::NoMem,
        MemClass::Read,
        MemClass::Write,
        MemClass::ReadWrite,
    ];
    // Bucket the instruction count over the four classes.
    let mut left = insts;
    for class in &classes[..3] {
        let take = g.u64_in(0..left.max(2) / 2 + 1);
        for _ in 0..take {
            mix.record(*class);
        }
        left -= take;
    }
    for _ in 0..left {
        mix.record(MemClass::ReadWrite);
    }
    let level = |g: &mut Gen, upstream_misses: u64| -> CacheStats {
        let accesses = upstream_misses;
        let misses = if accesses == 0 {
            0
        } else {
            g.u64_in(0..accesses + 1)
        };
        CacheStats { accesses, misses }
    };
    let l1_accesses = g.u64_in(1..insts + 1);
    let l1d = level(g, l1_accesses);
    let l2 = level(g, l1d.misses);
    let l3 = level(g, l2.misses);
    RunMetrics {
        instructions: insts,
        mix,
        cache: Some(HierarchyStats {
            l1i: level(g, insts),
            l1d,
            l2,
            l3,
            ..HierarchyStats::default()
        }),
        timing: None,
        wall_seconds: g.f64_in(0.0..1.0),
    }
}

/// Normalized weights for `n` regions (sum exactly ~1).
fn arb_weights(g: &mut Gen, n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|_| g.f64_in(0.05..1.0)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// `aggregate_weighted` is invariant (to rounding) under permutation of
/// its regions: the aggregate is a weighted sum, so region order must
/// not matter beyond float associativity noise.
#[test]
fn aggregation_permutation_invariant() {
    run_cases("aggregation-permutation", 32, |g| {
        let n = g.usize_in(2..12);
        let regions: Vec<RunMetrics> = (0..n).map(|_| arb_region(g)).collect();
        let weights = arb_weights(g, n);
        let paired: Vec<(RunMetrics, f64)> = regions.into_iter().zip(weights).collect();
        let forward = aggregate_weighted(&paired);
        // A deterministic permutation drawn from the case generator.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, g.usize_in(0..i + 1));
        }
        let permuted: Vec<(RunMetrics, f64)> = order.iter().map(|&i| paired[i].clone()).collect();
        let shuffled = aggregate_weighted(&permuted);
        for (a, b) in forward.mix_pct.iter().zip(&shuffled.mix_pct) {
            assert!((a - b).abs() < 1e-9, "mix {a} vs {b}");
        }
        let (fm, sm) = (forward.miss_rates.unwrap(), shuffled.miss_rates.unwrap());
        for (a, b) in [fm.l1i, fm.l1d, fm.l2, fm.l3]
            .iter()
            .zip(&[sm.l1i, sm.l1d, sm.l2, sm.l3])
        {
            assert!((a - b).abs() < 1e-9, "miss rate {a} vs {b}");
        }
        assert_eq!(forward.total_instructions, shuffled.total_instructions);
        assert_eq!(forward.total_l3_accesses, shuffled.total_l3_accesses);
    });
}

/// Aggregate outputs stay inside their physical bounds whenever the
/// weights sum to ~1: mix percentages sum to 100, miss rates to [0, 100].
#[test]
fn aggregation_bounds() {
    run_cases("aggregation-bounds", 32, |g| {
        let n = g.usize_in(1..12);
        let regions: Vec<(RunMetrics, f64)> = {
            let weights = arb_weights(g, n);
            (0..n).map(|_| arb_region(g)).zip(weights).collect()
        };
        let wsum: f64 = regions.iter().map(|(_, w)| w).sum();
        assert!((wsum - 1.0).abs() < 1e-6, "generator must normalize");
        let agg = aggregate_weighted(&regions);
        let mix_total: f64 = agg.mix_pct.iter().sum();
        assert!((mix_total - 100.0).abs() < 1e-6, "mix sums to {mix_total}");
        assert!(agg
            .mix_pct
            .iter()
            .all(|&p| (0.0..=100.0 + 1e-9).contains(&p)));
        let mr = agg.miss_rates.unwrap();
        for rate in [mr.l1i, mr.l1d, mr.l2, mr.l3] {
            assert!(
                (0.0..=100.0 + 1e-9).contains(&rate),
                "miss rate {rate} out of range"
            );
        }
        assert_eq!(
            agg.total_instructions,
            regions.iter().map(|(m, _)| m.instructions).sum::<u64>()
        );
    });
}

/// The pipeline's own regional weights sum to ~1 for arbitrary programs
/// (the precondition `aggregate_weighted` asserts).
#[test]
fn pipeline_weights_sum_to_one() {
    use sampsim::core::{PinPointsConfig, Pipeline, RunOptions};
    use sampsim::simpoint::SimPointOptions;
    run_cases("pipeline-weights", 6, |g| {
        let program = program_for(g.u64_in(0..500));
        let result = Pipeline::new(PinPointsConfig {
            slice_size: 1_000,
            simpoint: SimPointOptions {
                max_k: 6,
                ..Default::default()
            },
            warmup_slices: 2,
            profile_cache: None,
            ..Default::default()
        })
        .run(&program, &RunOptions::default())
        .unwrap();
        let total: f64 = result.regional.iter().map(|pb| pb.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
    });
}

/// The hardened JSON parser survives untrusted input: random documents
/// round-trip (including astral code points forced through `\u` surrogate
/// pairs), nesting beyond `MAX_DEPTH` is rejected without a stack
/// overflow, and trailing garbage after the top-level value is an error.
#[test]
fn json_parser_untrusted_input_hardening() {
    use sampsim::util::json::{self, Value, MAX_DEPTH};

    fn render(value: &Value, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&format!("{n:?}")),
            Value::String(s) => {
                out.push('"');
                for c in s.chars() {
                    // Force every char through \u escapes so the parser's
                    // surrogate-pair path is exercised for astral planes.
                    let mut buf = [0u16; 2];
                    for unit in c.encode_utf16(&mut buf) {
                        out.push_str(&format!("\\u{unit:04x}"));
                    }
                }
                out.push('"');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(item, out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(&Value::String(k.clone()), out);
                    out.push(':');
                    render(v, out);
                }
                out.push('}');
            }
        }
    }

    fn arb_value(g: &mut Gen, depth: usize) -> Value {
        let pick = if depth >= 3 {
            g.u64_in(0..4)
        } else {
            g.u64_in(0..6)
        };
        match pick {
            0 => Value::Null,
            1 => Value::Bool(g.u64_in(0..2) == 0),
            2 => Value::Number((g.u64_in(0..2_000_000) as f64 - 1e6) / 128.0),
            3 => {
                let len = g.u64_in(0..8) as usize;
                let s: String = (0..len)
                    .map(|_| {
                        // Mix ASCII, BMP and astral-plane code points.
                        match g.u64_in(0..3) {
                            0 => char::from(b'a' + (g.u64_in(0..26) as u8)),
                            1 => char::from_u32(0x0100 + g.u64_in(0..0x500) as u32).unwrap(),
                            _ => char::from_u32(0x1F300 + g.u64_in(0..0x100) as u32).unwrap(),
                        }
                    })
                    .collect();
                Value::String(s)
            }
            4 => Value::Array(
                (0..g.u64_in(0..4))
                    .map(|_| arb_value(g, depth + 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..g.u64_in(0..4))
                    .map(|i| (format!("k{i}"), arb_value(g, depth + 1)))
                    .collect(),
            ),
        }
    }

    run_cases("json-hardening", 64, |g| {
        // Round-trip: render → parse reproduces the value exactly.
        let value = arb_value(g, 0);
        let mut text = String::new();
        render(&value, &mut text);
        assert_eq!(json::parse(&text).unwrap(), value, "input: {text}");

        // Trailing garbage after the top-level value is always an error.
        let garbage = ["x", "1", "{}", "]", ",", "\"t\""][g.u64_in(0..6) as usize];
        assert!(
            json::parse(&format!("{text} {garbage}")).is_err(),
            "trailing {garbage:?} accepted after {text}"
        );

        // Nesting: depth ≤ MAX_DEPTH parses, depth > MAX_DEPTH is a
        // typed error, never a stack overflow.
        let depth = g.u64_in(1..MAX_DEPTH as u64 + 65) as usize;
        let bomb = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        let parsed = json::parse(&bomb);
        if depth <= MAX_DEPTH {
            assert!(parsed.is_ok(), "depth {depth} rejected");
        } else {
            assert!(parsed.is_err(), "depth {depth} accepted");
        }
    });
}

/// The request parser survives mutated request lines, and the router's
/// key agrees with the serving shard's. Valid `run`, `suite` and
/// `peer-put` lines are built from random fields (suite and garbage
/// benchmark names, scales from 1e-300 to 1e300, `slice`/`maxk` up to
/// `u64::MAX`, every strategy spec), then maybe truncated, given a
/// dropped, duplicated or retyped key, or nested 130 deep.
/// `parse_request` never panics; for every accepted run, `route_key`
/// returns, and equals `prepare(..).key` whenever `prepare` succeeds.
#[test]
fn request_parser_and_route_key_survive_mutated_lines() {
    use sampsim::serve::protocol::{parse_request, Request};
    use sampsim::serve::service::{prepare, route_key};
    use sampsim::simpoint::STRATEGY_NAMES;
    use sampsim::util::json::quote;

    let suite: Vec<String> = sampsim::spec2017::suite()
        .iter()
        .map(|spec| spec.name().to_string())
        .collect();
    let name = |g: &mut Gen| match g.usize_in(0..5) {
        0 | 1 => suite[g.usize_in(0..suite.len())].clone(),
        // The unique short form (`mcf_r`).
        2 => suite[g.usize_in(0..suite.len())]
            .split_once('.')
            .map_or(String::new(), |(_, short)| short.to_string()),
        3 => ["", "mcf", "nope", "505.mcf_r\u{0}", "\"", "\u{1F300}"][g.usize_in(0..6)].to_string(),
        _ => (0..g.usize_in(0..6))
            .map(|_| char::from_u32(g.u64_in(0x20..0x250) as u32).unwrap_or('?'))
            .collect(),
    };
    let count = |g: &mut Gen| match g.usize_in(0..4) {
        0 => g.u64_in(0..64),
        1 => g.u64_in(0..1 << 20),
        2 => u64::MAX,
        _ => g.u64_in(0..u64::MAX),
    };
    let strategy = |g: &mut Gen| {
        let n = count(g);
        match g.usize_in(0..6) {
            0 => STRATEGY_NAMES[g.usize_in(0..STRATEGY_NAMES.len())].to_string(),
            1 => format!("rss:replicates={n}"),
            2 => format!("rss:set_size={},seed={n}", g.u64_in(0..40)),
            3 => format!(
                "stratified2p:strata={},pilot={},samples={n}",
                g.u64_in(0..12),
                g.u64_in(0..4)
            ),
            4 => "simpoint:maxk=5".to_string(),
            _ => "frobnicate".to_string(),
        }
    };

    run_cases("request-fuzz", 1024, |g| {
        let op = ["run", "suite", "peer-put"][g.usize_in(0..3)];
        let mut fields: Vec<(String, String)> = vec![("op".into(), quote(op))];
        if op == "peer-put" {
            let key = format!("{:016x}", count(g));
            fields.push(("key".into(), quote(&key)));
            fields.push(("doc".into(), quote(&name(g))));
        } else {
            if op == "run" {
                fields.push(("bench".into(), quote(&name(g))));
            } else if g.chance(0.5) {
                let benches: Vec<String> = g.vec_of(0..3, |g| quote(&name(g)));
                fields.push(("benches".into(), format!("[{}]", benches.join(","))));
            }
            if g.chance(0.8) {
                fields.push((
                    "scale".into(),
                    format!("{:?}", 10f64.powf(g.f64_in(-300.0..300.0))),
                ));
            }
            for key in ["slice", "maxk"] {
                if g.chance(0.5) {
                    fields.push((key.into(), count(g).to_string()));
                }
            }
            if g.chance(0.5) {
                fields.push(("strategy".into(), quote(&strategy(g))));
            }
            if g.chance(0.2) {
                fields.push((
                    "kmeans".into(),
                    quote(["lloyd", "minibatch", "x"][g.usize_in(0..3)]),
                ));
            }
        }
        let i = g.usize_in(0..fields.len());
        match g.usize_in(0..8) {
            0 => {
                fields.remove(i);
            }
            1 => fields.push(fields[i].clone()),
            2 => {
                fields[i].1 = ["null", "true", "-1.5", "\"s\"", "[]", "{}"][g.usize_in(0..6)].into()
            }
            3 => fields[i].1 = format!("{}{}{}", "[".repeat(130), fields[i].1, "]".repeat(130)),
            _ => {}
        }
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        let mut line = format!("{{{}}}", body.join(","));
        if g.chance(0.1) {
            let cuts: Vec<usize> = line.char_indices().map(|(at, _)| at).collect();
            line.truncate(cuts[g.usize_in(0..cuts.len())]);
        }

        let Ok(Request::Run(request)) = parse_request(&line) else {
            return;
        };
        let routed = route_key(&request);
        if let Ok(prepared) = prepare(&request) {
            assert_eq!(routed.ok(), Some(prepared.key), "{line}");
        }
    });
}

/// A random sparse BBV set for the strategy properties.
fn arb_bbvs(g: &mut Gen, n: usize) -> Vec<Bbv> {
    (0..n)
        .map(|_| {
            let mut counts = g.vec_of(1..20, |g| {
                (g.u64_in(0..200) as u32, g.u64_in(1..100) as u32)
            });
            counts.sort_by_key(|&(b, _)| b);
            counts.dedup_by_key(|&mut (b, _)| b);
            Bbv::from_counts(counts)
        })
        .collect()
}

/// Every registered strategy returns a valid discrete distribution over
/// in-bounds slices: weights non-negative and summing to ~1, region
/// indices inside the slice range and duplicate-free — and the same holds
/// for every replicate set the strategy carries.
#[test]
fn strategy_selections_are_valid_distributions() {
    use sampsim::simpoint::{SimPointOptions, StrategySpec};
    run_cases("strategy-distributions", 24, |g| {
        let n = g.usize_in(2..60);
        let bbvs = arb_bbvs(g, n);
        let input = sampsim::simpoint::StrategyInput {
            bbvs: &bbvs,
            slice_size: 1_000,
        };
        let options = SimPointOptions {
            max_k: 6,
            seed: g.u64_in(0..1_000),
            ..Default::default()
        };
        for spec in StrategySpec::registry() {
            let strategy = spec.build(&options);
            let selection = strategy.select(&input, SERIAL).unwrap();
            let mut sets: Vec<&[sampsim::simpoint::select::SimPoint]> = vec![&selection.points];
            sets.extend(selection.replicates.iter().map(Vec::as_slice));
            for points in sets {
                assert!(!points.is_empty(), "{}: empty selection", spec.name());
                let mut seen = std::collections::HashSet::new();
                let mut sum = 0.0;
                for p in points {
                    assert!(
                        (p.slice as usize) < n,
                        "{}: slice {} out of {n}",
                        spec.name(),
                        p.slice
                    );
                    assert!(
                        seen.insert(p.slice),
                        "{}: duplicate {}",
                        spec.name(),
                        p.slice
                    );
                    assert!(p.weight >= 0.0, "{}: weight {}", spec.name(), p.weight);
                    sum += p.weight;
                }
                assert!((sum - 1.0).abs() < 1e-9, "{}: sum {sum}", spec.name());
            }
        }
    });
}

/// The stratified allocation depends only on the score *multiset*, not on
/// slice order: permuting the BBV list leaves the per-stratum sample
/// allocation unchanged.
#[test]
fn stratified2p_allocation_permutation_invariant() {
    use sampsim::simpoint::{StrategyInput, Stratified2p, Stratified2pOptions};
    run_cases("s2p-allocation-permutation", 24, |g| {
        let n = g.usize_in(4..80);
        let bbvs = arb_bbvs(g, n);
        let strategy = Stratified2p::new(Stratified2pOptions {
            seed: g.u64_in(0..10_000),
            ..Default::default()
        });
        let forward = strategy
            .allocation(&StrategyInput {
                bbvs: &bbvs,
                slice_size: 1_000,
            })
            .unwrap();
        // A deterministic shuffle drawn from the case generator.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, g.usize_in(0..i + 1));
        }
        let shuffled: Vec<Bbv> = order.iter().map(|&i| bbvs[i].clone()).collect();
        let permuted = strategy
            .allocation(&StrategyInput {
                bbvs: &shuffled,
                slice_size: 1_000,
            })
            .unwrap();
        assert_eq!(forward, permuted, "allocation moved under permutation");
    });
}

/// Repeated subsampling works: the standard error of the per-replicate
/// estimate (the replicate's weighted mean of the rank statistic) shrinks
/// as the replicate count grows — monotonically in expectation, so the
/// assertion averages over 20 independent BBV sets.
#[test]
fn rss_error_bars_shrink_with_replicates() {
    use sampsim::simpoint::strategy::bbv_norm_score;
    use sampsim::simpoint::{Rss, RssOptions, SamplingStrategy, StrategyInput};
    use sampsim::util::rng::Xoshiro256StarStar;
    use sampsim::util::stats::Summary;

    let grid = [4usize, 16, 64];
    let mut avg_stderr = [0.0f64; 3];
    for seed in 0..20u64 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let bbvs: Vec<Bbv> = (0..80)
            .map(|_| {
                let len = 5 + rng.next_below(15) as usize;
                let mut counts: Vec<(u32, u32)> = (0..len)
                    .map(|_| (rng.next_below(300) as u32, 1 + rng.next_below(50) as u32))
                    .collect();
                counts.sort_by_key(|&(b, _)| b);
                counts.dedup_by_key(|&mut (b, _)| b);
                Bbv::from_counts(counts)
            })
            .collect();
        let scores: Vec<f64> = bbvs.iter().map(bbv_norm_score).collect();
        let input = StrategyInput {
            bbvs: &bbvs,
            slice_size: 1_000,
        };
        for (i, &reps) in grid.iter().enumerate() {
            let selection = Rss::new(RssOptions {
                replicates: reps,
                seed: 0x00C0_FFEE ^ seed,
                ..Default::default()
            })
            .select(&input, SERIAL)
            .unwrap();
            assert_eq!(selection.replicates.len(), reps);
            let mut estimates = Summary::new();
            for replicate in &selection.replicates {
                // Weights sum to 1, so this is the replicate's estimate of
                // the mean rank statistic.
                let mean: f64 = replicate
                    .iter()
                    .map(|p| p.weight * scores[p.slice as usize])
                    .sum();
                estimates.add(mean);
            }
            avg_stderr[i] += estimates.stddev() / (reps as f64).sqrt();
        }
    }
    assert!(
        avg_stderr[0] > avg_stderr[1] && avg_stderr[1] > avg_stderr[2],
        "stderr must shrink with replicates: {avg_stderr:?}"
    );
}

/// Deterministic mini-program family indexed by seed.
fn program_for(seed: u64) -> Program {
    WorkloadSpec::builder("prop", seed)
        .total_insts(20_000 + (seed % 7) * 1_000)
        .phase(PhaseSpec::balanced(1.0))
        .phase(PhaseSpec {
            weight: 0.5,
            mix: Mix::new(0.3, 0.1, 0.01),
            n_blocks: 4 + (seed % 3) as usize,
            block_len: (3, 8),
            streams: vec![StreamGen::random(32 << 10), StreamGen::chase(64 << 10)],
            branch_entropy: 0.2,
            block_skew: 0.5,
        })
        .interleave(InterleaveSpec {
            mean_segment: 4_000,
            jitter: 0.5,
            align: 0,
        })
        .build()
        .build()
}

// ---------------------------------------------------------------- plans

/// Raising a strategy's sample budget must never *widen* a plan's CI
/// half-width bounds (more samples ⇒ at least as much precision), and
/// the predicted replay cost must grow at least as fast as the region
/// mass it buys. Swept per strategy family: `rss` by set size,
/// `stratified2p` by sample budget, `simpoint` by MaxK — and `rss` by
/// replicate count, where the bound is per-replicate and must stay
/// constant (trivially non-increasing).
#[test]
fn plan_ci_bounds_monotone_in_sample_budget() {
    run_cases("plan-ci-monotone", 12, |g| {
        let program = program_for(g.u64_in(0..500));
        let config = PinPointsConfig {
            slice_size: 100 + 50 * g.u64_in(0..5),
            warmup_slices: g.u64_in(0..8),
            ..Default::default()
        };
        let budgets = [2usize, 4, 8, 16, 32, 64];
        let sweep =
            |config: &PinPointsConfig, specs: &[String]| -> Vec<sampsim::core::PlanReport> {
                specs
                    .iter()
                    .map(|s| {
                        let spec = StrategySpec::parse_spec(s).expect("generated specs parse");
                        plan_strategy(&program, config, Some(&spec)).expect("plans render")
                    })
                    .collect()
            };
        let mut sweeps: Vec<Vec<sampsim::core::PlanReport>> = vec![
            sweep(&config, &budgets.map(|b| format!("rss:set_size={b}"))),
            sweep(
                &config,
                &budgets.map(|b| format!("stratified2p:samples={b}")),
            ),
            sweep(
                &config,
                &budgets.map(|b| format!("rss:set_size=8,replicates={b}")),
            ),
        ];
        // simpoint has no spec parameters; its budget is MaxK.
        sweeps.push(
            budgets
                .iter()
                .map(|&k| {
                    let mut c = config.clone();
                    c.simpoint.max_k = k;
                    plan_strategy(&program, &c, None).expect("plans render")
                })
                .collect(),
        );
        for plans in &sweeps {
            for pair in plans.windows(2) {
                for ((metric, lo), (_, hi)) in pair[1]
                    .ci_bound_pct
                    .named()
                    .iter()
                    .zip(pair[0].ci_bound_pct.named())
                {
                    assert!(
                        *lo <= hi,
                        "{}: {metric} bound widened from {hi} to {lo} as the budget grew",
                        pair[1].strategy
                    );
                }
                assert!(
                    pair[1].regions < pair[0].regions
                        || pair[1].predicted_instructions >= pair[0].predicted_instructions,
                    "{}: cost shrank while the region count did not",
                    pair[1].strategy
                );
            }
            for plan in plans {
                // The report's cost is the shared static model, exactly.
                assert_eq!(
                    plan.predicted_instructions,
                    predicted_instructions(
                        plan.regions,
                        plan.slice_size,
                        config.warmup_slices,
                        plan.slices
                    )
                );
            }
        }
    });
}

/// The shared cost model `predicted_instructions` is monotone in every
/// argument and matches its closed form (regions × slice ×
/// (1 + clamped warmup)) wherever the product does not saturate.
#[test]
fn predicted_cost_scales_with_region_mass() {
    run_cases("plan-cost-monotone", 48, |g| {
        let regions = g.usize_in(0..200);
        let slice = g.u64_in(1..10_000);
        let warmup = g.u64_in(0..100);
        let n = g.u64_in(1..1_000);
        let base = predicted_instructions(regions, slice, warmup, n);
        assert!(predicted_instructions(regions + 1, slice, warmup, n) >= base);
        assert!(predicted_instructions(regions, slice + 1, warmup, n) >= base);
        assert!(predicted_instructions(regions, slice, warmup + 1, n) >= base);
        assert!(predicted_instructions(regions, slice, warmup, n + 1) >= base);
        assert_eq!(base, regions as u64 * slice * (1 + warmup.min(n - 1)));
    });
}

/// A plan is a pure function of (program, config): rendering the same
/// strategy with its spec parameters written in any key order produces
/// byte-identical JSON. (Job-count independence is structural — the
/// planner takes no job parameter at all — and the CLI integration suite
/// pins the `--jobs` bytes.)
#[test]
fn plan_reports_byte_identical_across_spec_permutations() {
    run_cases("plan-bytes-stable", 12, |g| {
        let program = program_for(g.u64_in(0..500));
        let config = PinPointsConfig {
            slice_size: 100 + 50 * g.u64_in(0..5),
            ..Default::default()
        };
        let set_size = g.usize_in(2..20);
        let reps = g.usize_in(2..6);
        let seed = g.u64_in(0..1_000);
        let strata = g.usize_in(1..10);
        let samples = g.usize_in(2..60);
        let render = |spec: &str| {
            let spec = StrategySpec::parse_spec(spec).expect("generated specs parse");
            plan_strategy(&program, &config, Some(&spec))
                .expect("plans render")
                .to_json()
        };
        assert_eq!(
            render(&format!(
                "rss:set_size={set_size},replicates={reps},seed={seed}"
            )),
            render(&format!(
                "rss:seed={seed},replicates={reps},set_size={set_size}"
            )),
        );
        assert_eq!(
            render(&format!(
                "stratified2p:strata={strata},samples={samples},seed={seed}"
            )),
            render(&format!(
                "stratified2p:seed={seed},samples={samples},strata={strata}"
            )),
        );
    });
}
