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
//! sampsim serve                         sampling-as-a-service daemon
//! sampsim request  <bench>              query a daemon (reply == run stdout)
//! sampsim fleet                         sharded serving fleet (router+shards)
//! sampsim loadgen                       drive a fleet, emit BENCH_serve.json
//! sampsim figure   [name] [bench]       regenerate a paper table/figure
//! ```
//!
//! Global flags: `--scale <f>` (workload scale, default `$SAMPSIM_SCALE`
//! or 1.0), `--slice <n>`, `--maxk <n>`, `--jobs <n|auto>` (worker
//! threads; results are bit-identical for every job count).

use std::error::Error;
use std::process::ExitCode;

mod args;
mod commands;
mod figures;

fn main() -> ExitCode {
    let parsed = match args::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    match dispatch(parsed.command, &parsed.options) {
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

/// Runs one command and yields its exit code: 0 on success, except that
/// `lint` and `audit` map their findings to the code (0 clean, 1 denied
/// findings).
fn dispatch(command: args::Command, options: &args::Options) -> Result<u8, Box<dyn Error>> {
    match command {
        args::Command::List => commands::list()?,
        args::Command::Run { bench, out } => commands::run(&bench, out.as_deref(), options)?,
        args::Command::Profile { bench } => commands::profile(&bench, options)?,
        args::Command::SimPoints { bench, out } => {
            commands::simpoints(&bench, out.as_deref(), options)?;
        }
        args::Command::Replay { path } => commands::replay(&path, options)?,
        args::Command::Report { bench } => commands::report(&bench, options)?,
        args::Command::Compare {
            bench,
            out,
            reps,
            validate,
        } => commands::compare(
            bench.as_deref(),
            out.as_deref(),
            reps,
            validate.as_deref(),
            options,
        )?,
        args::Command::Plan {
            bench,
            out,
            validate,
        } => commands::plan(
            bench.as_deref(),
            out.as_deref(),
            validate.as_deref(),
            options,
        )?,
        args::Command::Trace { bench, out, limit } => {
            commands::trace(&bench, &out, limit, options)?
        }
        // `--explain` answers from the rule registry alone — no
        // benchmarks are built, no lint pass runs.
        args::Command::Lint {
            explain: Some(id), ..
        } => commands::explain(&id)?,
        args::Command::Lint {
            bench,
            format,
            deny_warnings,
            artifacts,
            explain: None,
        } => {
            return commands::lint(
                bench.as_deref(),
                format,
                deny_warnings,
                artifacts.as_deref(),
                options,
            )
        }
        args::Command::Audit {
            bench,
            format,
            deny_warnings,
            artifacts,
            update,
        } => {
            return commands::audit(
                bench.as_deref(),
                format,
                deny_warnings,
                artifacts.as_deref(),
                update,
                options,
            )
        }
        args::Command::Perf {
            quick,
            out,
            validate,
            baseline,
        } => commands::perf(
            quick,
            out.as_deref(),
            validate.as_deref(),
            baseline.as_deref(),
            options,
        )?,
        args::Command::Serve {
            addr,
            cache_dir,
            queue_depth,
        } => commands::serve(&addr, cache_dir.as_deref(), queue_depth, options)?,
        args::Command::Request {
            bench,
            addr,
            op,
            retries,
            out,
        } => commands::request(
            bench.as_deref(),
            &addr,
            op,
            retries,
            out.as_deref(),
            options,
        )?,
        args::Command::Fleet {
            shards,
            addr,
            cache_dir,
            queue_depth,
        } => commands::fleet(shards, &addr, cache_dir.as_deref(), queue_depth, options)?,
        args::Command::Loadgen {
            shards,
            clients,
            requests,
            mix,
            seed,
            quick,
            out,
            validate,
        } => commands::loadgen(
            shards,
            clients,
            requests,
            mix.as_deref(),
            seed,
            quick,
            out.as_deref(),
            validate.as_deref(),
        )?,
        args::Command::Figure {
            name,
            bench,
            artifacts,
        } => figures::figure(name.as_deref(), bench.as_deref(), &artifacts, options)?,
        args::Command::Help => println!("{}", args::USAGE),
    }
    Ok(0)
}
