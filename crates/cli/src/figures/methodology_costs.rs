//! Methodology cost accounting (paper §II-B / §III).
//!
//! The paper reports that PinPlay logging runs 100–200× slower than native
//! execution (checkpointing bwaves_s took over a month), while replay of
//! regional pinballs is the cheap, repeatable part. This exhibit measures
//! the analogous costs in sampsim: raw execution, the profiling/logging
//! pass (BBVs + slice checkpoints + tools), clustering, and regional
//! replay, each stage over `--jobs` workers.

use super::{table1, FigureArgs};
use crate::commands::CmdResult;
use sampsim_cache::configs;
use sampsim_core::WarmupMode;
use sampsim_spec2017::BenchmarkId;
use sampsim_util::table::{fmt_f, fmt_x, Table};
use sampsim_workload::Executor;
use std::time::Instant;

/// `part` seconds as a share of `whole` seconds, worded to follow "in":
/// "1/N of" while `part` is at most a tenth of `whole`, else a multiple
/// ("0.62x", "1.60x"), which reads right on both sides of 1.
fn time_share(part: f64, whole: f64) -> String {
    if part * 10.0 <= whole {
        format!("1/{:.0} of", whole / part)
    } else {
        format!("{:.2}x", part / whole)
    }
}

/// The line under the table. Every stage but the native walk runs over
/// `--jobs` workers, so the "vs native" ratios move with the worker count.
fn workers_note(workers: usize) -> String {
    let plural = if workers == 1 { "" } else { "s" };
    format!("\"vs native\": every stage but native execution ran on {workers} worker{plural} (--jobs {workers})")
}

pub(super) fn render(args: &FigureArgs) -> CmdResult {
    let id = BenchmarkId::GccR;
    let bench = args.bench(id);
    let program = bench.program();
    let insts = program.total_insts() as f64;

    // 1. "Native" execution: the bare executor.
    let t = Instant::now();
    let mut exec = Executor::new(program);
    let mut checksum = 0u64;
    while let Some(i) = exec.next_inst() {
        checksum ^= i.addr;
    }
    let native = t.elapsed().as_secs_f64();
    std::hint::black_box(checksum);

    // 2. Logging pass: BBVs + slice checkpoints + ldstmix + allcache.
    let t = Instant::now();
    let profile = bench.profile(Some(configs::allcache_table1()));
    let logging = t.elapsed().as_secs_f64();

    // 3. Clustering (or the configured strategy's selection).
    let t = Instant::now();
    let selection = bench.select(&profile)?;
    let clustering = t.elapsed().as_secs_f64();
    let regional = bench.regionals(&profile, &selection);

    // 4. Regional replay (all points, with warmup).
    let t = Instant::now();
    let metrics = bench.replay(&regional, table1(), WarmupMode::Checkpointed)?;
    let replay = t.elapsed().as_secs_f64();
    let measured: u64 = metrics.iter().map(|(m, _)| m.instructions).sum();
    let walked = measured + regional.iter().map(|pb| pb.warmup_insts()).sum::<u64>();

    let mut table = Table::new(["Phase", "Seconds", "Minst/s", "vs native"]);
    table.title(format!(
        "Methodology costs, {} ({} instructions)",
        id.name(),
        program.total_insts()
    ));
    table.row(vec![
        "native execution".into(),
        fmt_f(native, 3),
        fmt_f(insts / native / 1e6, 1),
        "1.0x".into(),
    ]);
    table.row(vec![
        "logging (checkpoint+BBV+tools)".into(),
        fmt_f(logging, 3),
        fmt_f(insts / logging / 1e6, 1),
        fmt_x(logging / native),
    ]);
    let selector = args.selector();
    let selecting = match selector {
        "SimPoint" => "clustering",
        _ => "selection",
    };
    table.row(vec![
        format!("{selecting} ({selector})"),
        fmt_f(clustering, 3),
        "-".into(),
        fmt_x(clustering / native),
    ]);
    table.row(vec![
        format!("regional replay ({} pts)", regional.len()),
        fmt_f(replay, 3),
        fmt_f(walked as f64 / replay / 1e6, 1),
        fmt_x(replay / native),
    ]);
    table.print();
    println!("{}", workers_note(args.jobs.get()));
    println!(
        "\none-time cost (logging+clustering) {:.2}s; each subsequent experiment replays",
        logging + clustering,
    );
    println!(
        "1/{:.0} of the instructions in {} the whole-run-with-tools time",
        insts / measured as f64,
        time_share(replay, logging),
    );
    println!("\n(paper: PinPlay logging is 100-200x slower than native — checkpointing");
    println!(" bwaves_s took over a month — while regional replay is the cheap,");
    println!(" infinitely repeatable artifact)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{time_share, workers_note};

    #[test]
    fn workers_note_names_the_worker_count() {
        assert_eq!(
            workers_note(1),
            "\"vs native\": every stage but native execution ran on 1 worker (--jobs 1)"
        );
        assert_eq!(
            workers_note(2),
            "\"vs native\": every stage but native execution ran on 2 workers (--jobs 2)"
        );
    }

    #[test]
    fn time_share_reads_right_on_both_sides_of_one() {
        // Replay far cheaper than logging: a fraction.
        assert_eq!(time_share(0.05, 2.0), "1/40 of");
        assert_eq!(time_share(0.1, 1.0), "1/10 of");
        // Within a factor of ten, and past parity: a multiple, never
        // "1/1" or "1/0".
        assert_eq!(time_share(0.04, 0.1), "0.40x");
        assert_eq!(time_share(0.085, 0.053), "1.60x");
        assert_eq!(time_share(0.092, 0.037), "2.49x");
    }
}
