//! Seeded divergence-surface fuzzing campaign from the command line: runs
//! one campaign, prints the per-target table, and emits `BENCH_fuzz.json`
//! with inputs/sec, divergences found, false-positive rate, and the mean
//! shrink ratio.
//!
//! ```text
//! fuzz_bench [--smoke] [--chaos] [--seed N] [--targets a,b,...]
//!            [--corpus DIR] [--findings PATH] [--json BENCH_fuzz.json]
//! ```
//!
//! The campaign is a pure function of `(seed, config)`: two runs with the
//! same flags produce byte-identical `--findings` sections and `--corpus`
//! reproducers (CI diffs them). `--smoke` shrinks the budget and gates:
//! zero false positives on the default target set, at least one true
//! positive found + shrunk + triaged, and (with `--chaos`) at least one
//! chaos-only finding from the composed fault plan. Knobs:
//! `RDDR_FUZZ_CASES` (cases per target), `RDDR_FUZZ_ITEMS` (max items per
//! case), `RDDR_FUZZ_SHRINK` (shrink eval budget).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use rddr_fuzz::{corpus, fuzz, FuzzConfig, FuzzError, TargetId, Verdict};
use rddr_protocols::JsonValue;

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            return args.next();
        }
    }
    None
}

/// Reads a `usize` budget knob from the environment with a default.
fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn obj(pairs: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(value: f64) -> JsonValue {
    JsonValue::Number(value)
}

fn s(value: impl Into<String>) -> JsonValue {
    JsonValue::String(value.into())
}

fn main() -> Result<(), FuzzError> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let chaos = std::env::args().any(|a| a == "--chaos");
    let json = arg_value("--json");
    let seed = arg_value("--seed")
        .map(|v| v.parse::<u64>())
        .transpose()
        .map_err(|_| FuzzError::msg("--seed takes a u64"))?
        .unwrap_or(42);
    let targets: Vec<TargetId> = match arg_value("--targets") {
        Some(list) => list
            .split(',')
            .map(|t| {
                TargetId::parse(t.trim())
                    .ok_or_else(|| FuzzError::msg(format!("unknown target {t:?}")))
            })
            .collect::<Result<_, _>>()?,
        None => TargetId::default_set(),
    };
    let config = FuzzConfig {
        seed,
        targets,
        cases_per_target: env_usize("RDDR_FUZZ_CASES", if smoke { 5 } else { 12 }),
        max_items: env_usize("RDDR_FUZZ_ITEMS", 8),
        shrink_budget: env_usize("RDDR_FUZZ_SHRINK", if smoke { 24 } else { 48 }),
        chaos,
    };
    println!(
        "fuzz_bench: seed={} targets={} cases/target={} max-items={} shrink-budget={} chaos={}",
        config.seed,
        config.targets.len(),
        config.cases_per_target,
        config.max_items,
        config.shrink_budget,
        config.chaos,
    );

    let t0 = Instant::now();
    let report = fuzz(&config)?;
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    for st in &report.stats {
        println!(
            "{:>12}  {:>3} cases  {:>4} items  {:>3} divergent  {:>2} findings  \
             {:>4} shrink evals",
            st.target.name(),
            st.cases,
            st.items,
            st.divergent,
            st.findings,
            st.shrink_evals,
        );
    }
    let tp = report.count(Verdict::TruePositive);
    let fp = report.count(Verdict::FalsePositive);
    let co = report.count(Verdict::ChaosOnly);
    let divergent: usize = report.stats.iter().map(|s| s.divergent).sum();
    let items = report.total_items();
    println!(
        "{} items in {secs:.1}s ({:.0} inputs/sec); {divergent} divergent cases -> \
         {} findings: {tp} true-positive, {fp} false-positive, {co} chaos-only; \
         shrink ratio {}‰",
        items,
        items as f64 / secs,
        report.findings.len(),
        report.shrink_ratio_permille(),
    );
    for f in &report.findings {
        println!(
            "  [{}] {} ({} -> {} items, seed {}): {}",
            f.verdict,
            f.target.name(),
            f.original.items.len(),
            f.shrunk.items.len(),
            f.case_seed,
            f.signature,
        );
    }

    if let Some(dir) = arg_value("--corpus") {
        let dir = PathBuf::from(dir);
        corpus::write_dir(&dir, &report.reproducers())?;
        println!(
            "wrote {} reproducers to {}",
            report.findings.len(),
            dir.display()
        );
    }
    if let Some(path) = arg_value("--findings") {
        std::fs::write(&path, report.findings_json())?;
        println!("wrote {path}");
    }

    if smoke {
        assert_eq!(
            fp, 0,
            "smoke gate: the default target set must triage with zero false positives"
        );
        assert!(
            tp >= 1,
            "smoke gate: the campaign must find, shrink, and triage at least one true positive"
        );
        if chaos {
            assert!(
                co >= 1,
                "smoke gate: fuzz-under-chaos must surface at least one chaos-only finding"
            );
        }
        println!("smoke gates passed");
    }

    if let Some(path) = json {
        let params = obj([
            ("seed", num(seed as f64)),
            ("cases_per_target", num(config.cases_per_target as f64)),
            ("max_items", num(config.max_items as f64)),
            ("shrink_budget", num(config.shrink_budget as f64)),
            ("chaos", s(if chaos { "true" } else { "false" })),
        ]);
        let mut rows: Vec<JsonValue> = vec![obj([
            ("kind", s("summary")),
            ("items", num(items as f64)),
            ("inputs_per_sec", num(items as f64 / secs)),
            ("divergent_cases", num(divergent as f64)),
            ("findings", num(report.findings.len() as f64)),
            ("true_positives", num(tp as f64)),
            ("false_positives", num(fp as f64)),
            ("chaos_only", num(co as f64)),
            (
                "fp_rate",
                num(if report.findings.is_empty() {
                    0.0
                } else {
                    fp as f64 / report.findings.len() as f64
                }),
            ),
            (
                "shrink_ratio",
                num(report.shrink_ratio_permille() as f64 / 1000.0),
            ),
        ])];
        for st in &report.stats {
            rows.push(obj([
                ("kind", s("target")),
                ("target", s(st.target.name())),
                ("cases", num(st.cases as f64)),
                ("items", num(st.items as f64)),
                ("divergent", num(st.divergent as f64)),
                ("findings", num(st.findings as f64)),
                ("shrink_evals", num(st.shrink_evals as f64)),
            ]));
        }
        for f in &report.findings {
            rows.push(obj([
                ("kind", s("finding")),
                ("target", s(f.target.name())),
                ("verdict", s(f.verdict.name())),
                ("signature", s(f.signature.clone())),
                ("case_seed", num(f.case_seed as f64)),
                ("chaos", s(if f.chaos { "true" } else { "false" })),
                ("original_items", num(f.original.items.len() as f64)),
                ("shrunk_items", num(f.shrunk.items.len() as f64)),
                ("shrink_evals", num(f.shrink_evals as f64)),
            ]));
        }
        let doc = JsonValue::Object(BTreeMap::from([
            ("figure".to_string(), s("fuzz")),
            ("params".to_string(), params),
            ("rows".to_string(), JsonValue::Array(rows)),
        ]));
        std::fs::write(&path, format!("{doc}\n"))?;
        println!("wrote {path}");
    }
    Ok(())
}
