//! `sampsim` — the command-line interface to the statistical-sampling
//! laboratory.
//!
//! ```text
//! sampsim list                          benchmarks in the suite
//! sampsim run      <bench>              full sampling study, JSON output
//! sampsim profile  <bench>              whole-run profile (mix, caches)
//! sampsim simpoints <bench> -o <dir>    find simulation points, save pinballs
//! sampsim replay   <dir>/<bench>.pb     replay saved pinballs with tools
//! sampsim report   <bench>              full paper-style report (all runs)
//! sampsim compare  <bench>              cross-strategy efficacy study, JSON
//! sampsim plan     <bench>              static cost/precision plan, JSON
//! sampsim trace    <bench> -o FILE      write an execution trace to disk
//! sampsim lint     [bench]              static checks (workloads + config)
//! sampsim audit    [bench]              static-vs-dynamic differential oracle
//! sampsim perf     [-o FILE]            kernel microbenchmarks vs references
//! sampsim serve                         sampling-as-a-service daemon
//! sampsim request  <bench>              query a daemon (reply == run stdout)
//! sampsim fleet                         sharded serving fleet (router+shards)
//! sampsim figure   [name] [bench]       regenerate a paper table/figure
//! ```
//!
//! Each command reads only its own flags and refuses any other with exit
//! 2: `args::COMMANDS` declares them, and `sampsim help` lists them.
//! Where a command reads them, `--scale <f>` sets the workload scale
//! (default `$SAMPSIM_SCALE` or 1.0) and `--jobs <n|auto>` the worker
//! threads; results are bit-identical for every job count.

use std::process::ExitCode;

mod args;
mod commands;
mod figures;

fn main() -> ExitCode {
    let (command, args) = match args::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    // 0 on success, except that `lint` and `audit` map their findings to
    // the code (0 clean, 1 denied findings).
    match (command.run)(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            // Usage-class failures (e.g. an unwritable -o path) exit 2,
            // matching the parse-error convention above.
            if e.is::<commands::UsageError>() {
                return ExitCode::from(2);
            }
            ExitCode::FAILURE
        }
    }
}
