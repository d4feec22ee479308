//! Mutation test of the declared report shapes over real documents.
//!
//! Each report's validator is its declared `Shape`, and the renderers
//! stay hand-written, so this test holds the declarations to the bytes
//! the renderers produce: a fresh plan and a fresh compare report on a
//! small program, the committed `BENCH_kernels.json` and
//! `BENCH_serve.json`, and one rendered diagnostic per location kind
//! must all pass, and every single-key mutant of every fixed-key object
//! in them must fail, naming the key:
//!
//! - each key deleted;
//! - one unknown key appended;
//! - each adjacent pair of keys swapped.

use sampsim::analyze::{diagnostic_json, diagnostic_schema, Diagnostic, Location, Rule};
use sampsim::core::{compare, plan, PinPointsConfig};
use sampsim::exec::SERIAL;
use sampsim::simpoint::SimPointOptions;
use sampsim::util::json::{self, Shape, Value};
use sampsim::workload::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};
use sampsim::workload::Program;
use sampsim_fleet::loadgen;

fn program() -> Program {
    WorkloadSpec::builder("shape-test", 13)
        .total_insts(120_000)
        .phase(PhaseSpec::memory_bound(1.0))
        .phase(PhaseSpec::compute_bound(1.0))
        .interleave(InterleaveSpec {
            mean_segment: 6_000,
            jitter: 0.3,
            align: 0,
        })
        .build()
        .build()
}

fn config() -> PinPointsConfig {
    PinPointsConfig {
        slice_size: 1_000,
        simpoint: SimPointOptions {
            max_k: 6,
            ..Default::default()
        },
        warmup_slices: 5,
        profile_cache: None,
        ..Default::default()
    }
}

fn committed(name: &str) -> String {
    std::fs::read_to_string(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name)).unwrap()
}

/// Every document under test, with the shape that declares it.
fn documents() -> Vec<(String, &'static Shape, String)> {
    let plan = plan::plan_strategy(&program(), &config(), None).unwrap();
    let compare = compare::compare_strategies(&program(), &config(), 2, SERIAL).unwrap();
    let mut docs = vec![
        ("plan".to_string(), plan::schema(), plan.to_json()),
        ("compare".to_string(), compare::schema(), compare.to_json()),
        (
            "BENCH_kernels.json".to_string(),
            sampsim::perf::schema(),
            committed("BENCH_kernels.json"),
        ),
        (
            "BENCH_serve.json".to_string(),
            loadgen::schema(),
            committed("BENCH_serve.json"),
        ),
    ];
    for location in [
        Location::workload("w"),
        Location::workload_item("w", "phase 1"),
        Location::config("simpoint.max_k"),
        Location::artifact("points.pb"),
    ] {
        let d = Diagnostic::new(Rule::UnreachablePhase, location, "never scheduled");
        docs.push((
            format!("{:?}", d.location),
            diagnostic_schema(),
            diagnostic_json(&d),
        ));
    }
    docs
}

/// Collects the index path (object field or array item positions) to
/// every fixed-key object in `value`, reading `shape` alongside it.
fn fixed_objects(shape: &Shape, value: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<(usize, Shape, &Value)> = match (shape, value) {
        (Shape::Nullable(inner), _) => return fixed_objects(inner, value, path, out),
        (Shape::Map(inner), Value::Object(fields)) => fields
            .iter()
            .enumerate()
            .map(|(i, (_, v))| (i, **inner, v))
            .collect(),
        (Shape::Array(item, ..), Value::Array(items)) => items
            .iter()
            .enumerate()
            .map(|(i, v)| (i, **item, v))
            .collect(),
        (Shape::Object(_) | Shape::Tagged { .. }, Value::Object(fields)) => {
            out.push(path.clone());
            let declared: &[(&str, Shape)] = match shape {
                Shape::Object(declared) => declared,
                Shape::Tagged { tag, variants } => {
                    let kind = value.get(tag).and_then(Value::as_str);
                    variants
                        .iter()
                        .find(|(name, _)| kind == Some(*name))
                        .unwrap()
                        .1
                }
                _ => unreachable!(),
            };
            fields
                .iter()
                .enumerate()
                .filter_map(|(i, (key, v))| {
                    let (_, inner) = declared.iter().find(|(k, _)| k == key)?;
                    Some((i, *inner, v))
                })
                .collect()
        }
        _ => return,
    };
    for (i, inner, v) in children {
        path.push(i);
        fixed_objects(&inner, v, path, out);
        path.pop();
    }
}

/// An object's fields, in document order.
type Fields = Vec<(String, Value)>;

fn object_at<'a>(value: &'a mut Value, path: &[usize]) -> &'a mut Fields {
    let node = path.iter().fold(value, |node, &i| match node {
        Value::Object(fields) => &mut fields[i].1,
        Value::Array(items) => &mut items[i],
        _ => unreachable!("paths only run through containers"),
    });
    match node {
        Value::Object(fields) => fields,
        _ => unreachable!("paths end at objects"),
    }
}

#[test]
fn every_single_key_mutant_of_a_real_report_is_rejected_by_name() {
    for (name, shape, text) in documents() {
        let doc = json::parse(&text).unwrap();
        shape
            .check(&doc)
            .unwrap_or_else(|e| panic!("{name} fails its own shape: {e}"));
        let mut objects = Vec::new();
        fixed_objects(shape, &doc, &mut Vec::new(), &mut objects);
        assert!(!objects.is_empty(), "{name}");
        for path in objects {
            let keys: Vec<String> = object_at(&mut doc.clone(), &path)
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            let reject = |key: &str, mutate: &dyn Fn(&mut Fields)| {
                let mut mutant = doc.clone();
                mutate(object_at(&mut mutant, &path));
                let err = shape
                    .check(&mutant)
                    .expect_err(&format!("{name}: mutant at {path:?} on {key:?} passed"));
                assert!(err.contains(&format!("{key:?}")), "{name}: {err}");
            };
            for (i, key) in keys.iter().enumerate() {
                reject(key, &|fields| {
                    fields.remove(i);
                });
                if i + 1 < keys.len() {
                    reject(key, &|fields| fields.swap(i, i + 1));
                }
            }
            reject("zz_unknown", &|fields| {
                fields.push(("zz_unknown".into(), Value::Null));
            });
        }
    }
}

#[test]
fn committed_reports_pass_their_validators() {
    sampsim::perf::validate_report(&committed("BENCH_kernels.json")).unwrap();
    loadgen::validate_report(&committed("BENCH_serve.json")).unwrap();
}
