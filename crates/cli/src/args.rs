//! Hand-rolled argument parsing (no external dependencies).
//!
//! Every command is declared once, in [`COMMANDS`]: its name, how many
//! operands it takes, the flags it reads and its handler. [`parse`]
//! checks each flag's value, then refuses any flag the command does not
//! read, so no command's output can claim a setting it never used.

use crate::commands::{self, UsageError};
use crate::figures;
use sampsim_exec::Jobs;
use sampsim_simpoint::MAX_REPLICATES;
use sampsim_util::scale::Scale;
use std::error::Error;
use std::str::FromStr;

/// Usage text shown by `sampsim help` and on parse errors.
pub const USAGE: &str = "\
usage: sampsim <command> [flags]

commands:
  list                         list the synthetic SPEC CPU2017 suite
  run <bench> [-o FILE]        full sampling study, machine-readable JSON
  profile <bench>              run the whole benchmark under ldstmix+allcache
  simpoints <bench> [-o DIR]   find simulation points; save pinballs to DIR
  replay <FILE>                replay saved regional pinballs with tools
  report <bench>               whole vs regional vs reduced vs warmup report
  compare <bench> [-o FILE]    run every registered sampling strategy and
                               report CPI / miss-rate error vs the whole run
  plan <bench> [-o FILE]       statically predict a strategy's cost, speedup
                               and error bound without running anything
  trace <bench> -o FILE        write an execution trace (--limit N insts)
  lint [bench]                 static checks over workloads and the config
  audit [bench]                differentially check dynamic profiles against
                               static per-slice bounds (executor oracle)
  perf [-o FILE]               time the optimized kernels against their
                               naive references; write a BENCH_kernels.json
  serve                        run the sampling-as-a-service daemon
  request [bench] [-o FILE]    query a running daemon (reply == `run` stdout)
  fleet                        run a sharded serving fleet (router + shards)
  figure [name] [bench]        regenerate one paper table/figure or ablation
                               (no name: list them); [bench] restricts suite
                               figures to names containing it
  help                         show this text

A command takes the shared flags that name it and the flags of its own
section below; it refuses any other flag (exit 2).

shared flags:
  --scale <f>    workload scale factor (default: $SAMPSIM_SCALE or 1.0);
                 read by run, simpoints, report, profile, replay, trace,
                 compare, plan, lint, audit, request and figure
  --slice <n>    slice size in instructions (default: 10000, scaled); read
                 by run, simpoints, report, compare, plan, lint, audit,
                 request and figure
  --maxk <n>     maximum cluster count (default: 35); read by run,
                 simpoints, report, compare, plan, lint, request and figure
  --jobs <n>     worker threads ('auto' or >= 1; default: auto); read by
                 run, simpoints, report, replay, compare, audit, perf,
                 serve, fleet and figure. Results are bit-identical for
                 every job count.
  --strategy <name>
                 region-selection strategy for run, simpoints, report,
                 plan, lint, request and figure (one of:
                 simpoint, stratified2p, rss; default: simpoint), with
                 optional parameters, e.g. rss:set_size=8,replicates=4

compare flags:
  --reps <n>              replicate selections per strategy for the error
                          bars (1 to 1000, default: 5)
  --validate <FILE>       only validate an existing report, run nothing

plan flags:
  --validate <FILE>       only validate an existing plan report, run nothing

lint flags:
  --format <human|json>   output format (default: human)
  --deny-warnings         exit non-zero on warnings too
  --artifacts <DIR>       also audit saved .pb pinball files in DIR
  --explain <SA-id>       print one rule's description (e.g. SA140) and exit

audit flags:
  --format / --deny-warnings   as for lint
  --artifacts <DIR>       check shipped .art audit summaries in DIR instead
                          of running the dynamic differential pass
  --update                (re)write the .art summaries in --artifacts DIR

perf flags:
  --quick                 smoke-test sizes (CI): BBVs of 505.mcf_r;
                          full sizes otherwise: BBVs of 503.bwaves_r
  --validate <FILE>       only validate an existing report, run nothing
  --baseline <FILE>       gate the fresh report against this baseline:
                          fail if any size-normalized rate (ns/access,
                          ns/BBV) regresses by more than 10%. ns/access
                          is compared across --quick and full runs,
                          ns/BBV only between same-sized runs. --jobs
                          sets the clustering worker count (timings
                          only; results stay bit-identical)

serve flags:
  --addr <host:port>      listen address (default: 127.0.0.1:7411; port 0
                          binds an ephemeral port, printed on stdout)
  --cache-dir <DIR>       on-disk response/stage cache (default: memory only)
  --queue-depth <n>       admission queue depth before Busy replies (>= 1,
                          default: 32); --jobs sets the worker-pool size

request flags:
  --addr <host:port>      daemon (or fleet router) address
                          (default: 127.0.0.1:7411)
  --ping | --stats | --shutdown
                          control op instead of a run request
  --suite                 batch op: stream one result line per benchmark
                          (comma-separated operand, or the whole suite)
  --retries <n>           max attempts on transient connect/busy failures
                          (>= 1; 1 disables retry; default: 4). Backoff is
                          exponential with deterministic jitter and honors
                          the daemon's retry_after_ms hint

fleet flags:
  --shards <n>            backend serve instances (>= 1, default: 2);
                          shards always bind ephemeral loopback ports
  --addr <host:port>      router listen address (default: 127.0.0.1:7411;
                          port 0 binds an ephemeral port, printed on stdout)
  --cache-dir <DIR>       disk-tier root; shard i uses DIR/shard-<i>
  --queue-depth <n>       admission queue depth (router and shards)

figure flags:
  --artifacts <DIR>       on-disk memo shared by every figure: per-benchmark
                          results and whole-program walks (default:
                          artifacts)
  --jobs                  suite figures fan uncached benchmarks out; the
                          others use the workers in every stage; output is
                          identical for every count
  --slice/--maxk/--strategy
                          as for run; a figure that sweeps, pins or never
                          reads one refuses it (exit 2, naming the flag)

<bench> is a SPEC name (e.g. 505.mcf_r) or a unique substring (mcf_r).";

/// One command: its name, the most operands it takes, the flags it reads
/// (`-o` also stands for `--out`) and its handler, which yields the exit
/// code.
pub struct Command {
    /// The name on the command line.
    pub name: &'static str,
    /// The most operands it takes; the handler checks the ones it needs.
    operands: usize,
    /// Every flag it reads; [`parse`] refuses the others.
    pub flags: &'static [&'static str],
    /// Runs the command.
    pub run: fn(&Args) -> Result<u8, Box<dyn Error>>,
}

/// Every command, in `USAGE` order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "list",
        operands: 0,
        flags: &[],
        run: |_| commands::list().map(|()| 0),
    },
    Command {
        name: "run",
        operands: 1,
        flags: &["--scale", "--slice", "--maxk", "--strategy", "--jobs", "-o"],
        run: |a| commands::run(a).map(|()| 0),
    },
    Command {
        name: "profile",
        operands: 1,
        flags: &["--scale"],
        run: |a| commands::profile(a).map(|()| 0),
    },
    Command {
        name: "simpoints",
        operands: 1,
        flags: &["--scale", "--slice", "--maxk", "--strategy", "--jobs", "-o"],
        run: |a| commands::simpoints(a).map(|()| 0),
    },
    Command {
        name: "replay",
        operands: 1,
        flags: &["--scale", "--jobs"],
        run: |a| commands::replay(a).map(|()| 0),
    },
    Command {
        name: "report",
        operands: 1,
        flags: &["--scale", "--slice", "--maxk", "--strategy", "--jobs"],
        run: |a| commands::report(a).map(|()| 0),
    },
    Command {
        name: "compare",
        operands: 1,
        flags: &[
            "--scale",
            "--slice",
            "--maxk",
            "--jobs",
            "--reps",
            "-o",
            "--validate",
        ],
        run: |a| commands::compare(a).map(|()| 0),
    },
    Command {
        name: "plan",
        operands: 1,
        flags: &[
            "--scale",
            "--slice",
            "--maxk",
            "--strategy",
            "-o",
            "--validate",
        ],
        run: |a| commands::plan(a).map(|()| 0),
    },
    Command {
        name: "trace",
        operands: 1,
        flags: &["--scale", "-o", "--limit"],
        run: |a| commands::trace(a).map(|()| 0),
    },
    Command {
        name: "lint",
        operands: 1,
        flags: &[
            "--scale",
            "--slice",
            "--maxk",
            "--strategy",
            "--format",
            "--deny-warnings",
            "--artifacts",
            "--explain",
        ],
        run: commands::lint,
    },
    Command {
        name: "audit",
        operands: 1,
        flags: &[
            "--scale",
            "--slice",
            "--jobs",
            "--format",
            "--deny-warnings",
            "--artifacts",
            "--update",
        ],
        run: commands::audit,
    },
    Command {
        name: "perf",
        operands: 0,
        flags: &["--jobs", "--quick", "-o", "--validate", "--baseline"],
        run: |a| commands::perf(a).map(|()| 0),
    },
    Command {
        name: "serve",
        operands: 0,
        flags: &["--jobs", "--addr", "--cache-dir", "--queue-depth"],
        run: |a| commands::serve(a).map(|()| 0),
    },
    Command {
        name: "request",
        operands: 1,
        flags: &[
            "--scale",
            "--slice",
            "--maxk",
            "--strategy",
            "--addr",
            "--ping",
            "--stats",
            "--shutdown",
            "--suite",
            "--retries",
            "-o",
        ],
        run: |a| commands::request(a).map(|()| 0),
    },
    Command {
        name: "fleet",
        operands: 0,
        flags: &[
            "--jobs",
            "--shards",
            "--addr",
            "--cache-dir",
            "--queue-depth",
        ],
        run: |a| commands::fleet(a).map(|()| 0),
    },
    Command {
        name: "figure",
        operands: 2,
        flags: &[
            "--scale",
            "--slice",
            "--maxk",
            "--strategy",
            "--jobs",
            "--artifacts",
        ],
        run: |a| figures::figure(a).map(|()| 0),
    },
    Command {
        name: "help",
        operands: 0,
        flags: &[],
        run: |_| {
            println!("{USAGE}");
            Ok(0)
        },
    },
];

/// A parsed command line: the operands after the command name and every
/// flag's value. A flag that was not given keeps its default.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Operands after the command name, in order.
    pub operands: Vec<String>,
    /// The flags given on the command line, in order (`-o` for `--out`).
    pub given: Vec<&'static str>,
    /// `--scale`; without it, `$SAMPSIM_SCALE` or full scale.
    pub scale: Scale,
    /// `--slice` (`None` = default 10 000, scaled).
    pub slice: Option<u64>,
    /// `--maxk`.
    pub maxk: Option<usize>,
    /// `--jobs`: worker threads.
    pub jobs: Jobs,
    /// `--strategy` (`None` = the pipeline default, SimPoint). Validated
    /// against the strategy registry by the command, not here.
    pub strategy: Option<String>,
    /// `-o`: where the command also writes its output.
    pub out: Option<String>,
    /// `--limit`: instruction cap (`None` = whole run).
    pub limit: Option<u64>,
    /// `--format`.
    pub format: LintFormat,
    /// `--deny-warnings`: warnings count toward the exit code too.
    pub deny_warnings: bool,
    /// `--artifacts`: a directory of saved pinballs, audit summaries or
    /// figure memo entries.
    pub artifacts: Option<String>,
    /// `--quick`: smoke-test sizes instead of measurement sizes.
    pub quick: bool,
    /// `--update`: rewrite the `.art` summaries in `--artifacts`.
    pub update: bool,
    /// `--reps`: replicates per strategy (`None` = `compare`'s default).
    pub reps: Option<usize>,
    /// `--validate`: check this saved report instead of running anything.
    pub validate: Option<String>,
    /// `--baseline`: gate a fresh perf report against this one.
    pub baseline: Option<String>,
    /// `--explain`: print this lint rule's description instead of linting.
    pub explain: Option<String>,
    /// `--addr`: listen or daemon address.
    pub addr: String,
    /// `--cache-dir`: on-disk cache root (`None` = memory tiers only).
    pub cache_dir: Option<String>,
    /// `--queue-depth`: admission-queue depth.
    pub queue_depth: usize,
    /// `--ping`, `--stats`, `--shutdown` or `--suite`: the request op.
    pub op: RequestOp,
    /// `--retries`: attempt bound for transient failures (`None` =
    /// default).
    pub retries: Option<u32>,
    /// `--shards`: backend shard count.
    pub shards: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            operands: Vec::new(),
            given: Vec::new(),
            scale: Scale::FULL,
            slice: None,
            maxk: None,
            jobs: Jobs::Auto,
            strategy: None,
            out: None,
            limit: None,
            format: LintFormat::default(),
            deny_warnings: false,
            artifacts: None,
            quick: false,
            update: false,
            reps: None,
            validate: None,
            baseline: None,
            explain: None,
            addr: sampsim_serve::DEFAULT_ADDR.to_string(),
            cache_dir: None,
            queue_depth: sampsim_serve::DEFAULT_QUEUE_DEPTH,
            op: RequestOp::default(),
            retries: None,
            shards: 2,
        }
    }
}

impl Args {
    /// The `i`th operand, if given.
    pub fn operand(&self, i: usize) -> Option<&str> {
        self.operands.get(i).map(String::as_str)
    }

    /// The first operand; without it, the usage error `message`.
    pub fn required(&self, message: &str) -> Result<&str, UsageError> {
        self.operand(0)
            .ok_or_else(|| UsageError(message.to_string()))
    }

    /// Refuses the first given flag that `who` does not `read`:
    /// `<who> refuses <flag>: <why>`. Both a command and a figure
    /// exhibit refuse through here.
    pub fn refuse_unread(
        &self,
        who: &str,
        read: impl Fn(&str) -> bool,
        why: &str,
    ) -> Result<(), String> {
        match self.given.iter().find(|flag| !read(flag)) {
            Some(flag) => Err(format!("{who} refuses {flag}: {why}")),
            None => Ok(()),
        }
    }
}

/// The operation `sampsim request` sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestOp {
    /// A full run request (the default).
    #[default]
    Run,
    /// Liveness check.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Graceful shutdown.
    Shutdown,
    /// Batch suite sweep (streams one line per benchmark).
    Suite,
}

/// Output format of `sampsim lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintFormat {
    /// `rustc`-style human-readable diagnostics.
    #[default]
    Human,
    /// One JSON object per diagnostic (JSON lines).
    Json,
}

/// A scale factor from `source` (`--scale` or `SAMPSIM_SCALE`), checked
/// against the one bound every front door shares.
fn parse_scale(source: &str, value: &str) -> Result<Scale, String> {
    value
        .trim()
        .parse()
        .ok()
        .and_then(Scale::checked)
        .ok_or_else(|| {
            format!(
                "bad {source} value: {value} (must be positive and at most {})",
                Scale::MAX
            )
        })
}

/// The value of `flag` as a number.
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad {flag} value: {value}"))
}

/// The value of `flag` as a count of at least one.
fn positive<T: FromStr + Default + PartialEq>(flag: &str, value: &str) -> Result<T, String> {
    let n = number(flag, value)?;
    if n == T::default() {
        return Err(format!("{flag} must be >= 1"));
    }
    Ok(n)
}

/// Parses an argument iterator into the command and its arguments.
/// `--help` or `-h` anywhere makes the command `help`. A command that
/// reads `--scale` and is not given it takes its scale from
/// `SAMPSIM_SCALE` when that is set; that default is never refused, and
/// no other command reads it.
///
/// # Errors
///
/// Returns a human-readable message on unknown commands/flags, a bad
/// flag value (naming where a bad scale came from), a flag the command
/// does not read, or more operands than it takes.
pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<(&'static Command, Args), String> {
    let argv: Vec<String> = argv.into_iter().collect();
    // `--help` or `-h` anywhere asks for the usage text, whatever else the
    // line holds.
    if argv.iter().any(|word| word == "--help" || word == "-h") {
        let help = COMMANDS.iter().find(|c| c.name == "help");
        return Ok((help.expect("help is a command"), Args::default()));
    }
    let mut args = Args::default();
    let mut scale: Option<Scale> = None;
    let mut words: Vec<String> = Vec::new();
    let mut argv = argv.into_iter();
    while let Some(word) = argv.next() {
        let flag = match word.as_str() {
            "--out" => "-o",
            w if !w.starts_with('-') => {
                words.push(word);
                continue;
            }
            w => COMMANDS
                .iter()
                .flat_map(|c| c.flags.iter().copied())
                .find(|flag| *flag == w)
                .ok_or_else(|| format!("unknown flag: {w}"))?,
        };
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag {
            "--scale" => scale = Some(parse_scale(flag, &value("a value")?)?),
            "--slice" => args.slice = Some(number(flag, &value("a value")?)?),
            "--maxk" => args.maxk = Some(number(flag, &value("a value")?)?),
            "--jobs" => args.jobs = value("a value")?.parse()?,
            "--strategy" => args.strategy = Some(value("a name")?),
            "--reps" => {
                let n = number(flag, &value("a value")?)?;
                if !(1..=MAX_REPLICATES).contains(&n) {
                    return Err(format!("--reps must be in 1..={MAX_REPLICATES}"));
                }
                args.reps = Some(n);
            }
            "-o" => args.out = Some(value("a path")?),
            "--limit" => args.limit = Some(number(flag, &value("a value")?)?),
            "--format" => {
                args.format = match value("a value")?.as_str() {
                    "human" => LintFormat::Human,
                    "json" => LintFormat::Json,
                    other => return Err(format!("bad --format value: {other}")),
                };
            }
            "--deny-warnings" => args.deny_warnings = true,
            "--quick" => args.quick = true,
            "--update" => args.update = true,
            "--addr" => args.addr = value("a host:port value")?,
            "--cache-dir" => args.cache_dir = Some(value("a path")?),
            "--queue-depth" => args.queue_depth = positive(flag, &value("a value")?)?,
            "--ping" | "--stats" | "--shutdown" | "--suite" => {
                let op = match flag {
                    "--ping" => RequestOp::Ping,
                    "--stats" => RequestOp::Stats,
                    "--suite" => RequestOp::Suite,
                    _ => RequestOp::Shutdown,
                };
                if args.op != RequestOp::Run && args.op != op {
                    return Err(
                        "--ping, --stats, --shutdown and --suite are mutually exclusive".into(),
                    );
                }
                args.op = op;
            }
            "--retries" => args.retries = Some(positive(flag, &value("a value")?)?),
            "--shards" => args.shards = positive(flag, &value("a value")?)?,
            "--validate" => args.validate = Some(value("a path")?),
            "--baseline" => args.baseline = Some(value("a path")?),
            "--explain" => args.explain = Some(value("a rule id (e.g. SA140)")?),
            "--artifacts" => args.artifacts = Some(value("a path")?),
            _ => unreachable!("{flag} is declared by a command but never parsed"),
        }
        args.given.push(flag);
    }
    let mut words = words.into_iter();
    let name = words.next().unwrap_or_else(|| "help".into());
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command: {name}"))?;
    args.refuse_unread(
        command.name,
        |flag| command.flags.contains(&flag),
        "the command never reads it",
    )?;
    args.scale = match (scale, std::env::var("SAMPSIM_SCALE")) {
        (Some(scale), _) => scale,
        (None, Ok(v)) if command.flags.contains(&"--scale") => parse_scale("SAMPSIM_SCALE", &v)?,
        (None, _) => Scale::FULL,
    };
    args.operands = words.collect();
    if let Some(extra) = args.operands.get(command.operands) {
        return Err(format!("unexpected argument: {extra}"));
    }
    Ok((command, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<(&'static str, Args), String> {
        parse(s.split_whitespace().map(String::from)).map(|(command, args)| (command.name, args))
    }

    /// The command name and operands of a command line that parses.
    fn operands(s: &str) -> (&'static str, Vec<String>) {
        let (name, args) = parse_str(s).unwrap();
        (name, args.operands)
    }

    #[test]
    fn parses_commands() {
        assert_eq!(operands("list"), ("list", vec![]));
        assert_eq!(operands("profile mcf_r"), ("profile", vec!["mcf_r".into()]));
        let (name, args) = parse_str("simpoints mcf_r -o out").unwrap();
        assert_eq!((name, args.operand(0)), ("simpoints", Some("mcf_r")));
        assert_eq!(args.out.as_deref(), Some("out"));
        assert_eq!(args.given, ["-o"]);
        assert_eq!(parse_str("simpoints mcf_r --out out").unwrap().1, args);
        assert_eq!(
            operands("replay out/x.pb"),
            ("replay", vec!["out/x.pb".into()])
        );
        assert_eq!(operands(""), ("help", vec![]));
        assert_eq!(operands("-h"), ("help", vec![]));
        // Anywhere on the line, whatever else it holds.
        for line in [
            "run --help",
            "run mcf_r -h",
            "--scale 1 --help",
            "list --wat -h",
        ] {
            let (name, args) = parse_str(line).unwrap();
            assert_eq!((name, args), ("help", Args::default()), "{line}");
        }
    }

    #[test]
    fn parses_flags() {
        let (_, a) = parse_str("report gcc_r --scale 0.5 --slice 2000 --maxk 10 --jobs 4").unwrap();
        assert_eq!(a.scale.factor(), 0.5);
        assert_eq!(a.slice, Some(2000));
        assert_eq!(a.maxk, Some(10));
        assert_eq!(a.jobs, Jobs::new(4).unwrap());
        assert_eq!(a.given, ["--scale", "--slice", "--maxk", "--jobs"]);
    }

    #[test]
    fn parses_run_and_jobs() {
        let (name, p) = parse_str("run mcf_r --jobs 2").unwrap();
        assert_eq!(
            (name, p.operand(0), p.out.as_deref()),
            ("run", Some("mcf_r"), None)
        );
        let (_, o) = parse_str("run mcf_r -o report.json").unwrap();
        assert_eq!(o.out.as_deref(), Some("report.json"));
        assert_eq!(p.jobs, Jobs::new(2).unwrap());
        assert_eq!(parse_str("run mcf_r").unwrap().1.jobs, Jobs::Auto);
        assert_eq!(
            parse_str("run mcf_r --jobs auto").unwrap().1.jobs,
            Jobs::Auto
        );
        assert!(parse_str("run mcf_r --jobs 0").is_err(), "zero jobs");
        assert!(parse_str("run mcf_r --jobs nope").is_err());
        assert!(parse_str("run mcf_r --jobs").is_err(), "missing value");
        assert_eq!(
            parse_str("run mcf_r extra").unwrap_err(),
            "unexpected argument: extra"
        );
    }

    #[test]
    fn parses_trace() {
        let (name, p) = parse_str("trace mcf_r -o t.trace --limit 5000").unwrap();
        assert_eq!((name, p.operand(0)), ("trace", Some("mcf_r")));
        assert_eq!(p.out.as_deref(), Some("t.trace"));
        assert_eq!(p.limit, Some(5000));
        assert_eq!(
            parse_str("trace mcf_r --limit x").unwrap_err(),
            "bad --limit value: x"
        );
    }

    #[test]
    fn parses_compare_and_strategy() {
        let (name, p) = parse_str("compare mcf_r --reps 3 -o cmp.json").unwrap();
        assert_eq!((name, p.operand(0)), ("compare", Some("mcf_r")));
        assert_eq!((p.reps, p.out.as_deref()), (Some(3), Some("cmp.json")));
        assert_eq!(parse_str("compare mcf_r").unwrap().1.reps, None);
        let (_, v) = parse_str("compare --validate cmp.json").unwrap();
        assert_eq!(
            (v.operand(0), v.validate.as_deref()),
            (None, Some("cmp.json"))
        );
        assert!(parse_str("compare mcf_r --reps 0").is_err());
        assert!(parse_str("compare mcf_r --reps 1000000000").is_err());
        assert!(parse_str("compare mcf_r --reps nope").is_err());
        assert!(
            parse_str("compare mcf_r --strategy rss").is_err(),
            "runs them all"
        );

        let p = parse_str("run mcf_r --strategy rss").unwrap().1;
        assert_eq!(p.strategy.as_deref(), Some("rss"));
        assert_eq!(parse_str("run mcf_r").unwrap().1.strategy, None);
        assert!(parse_str("run mcf_r --strategy").is_err());

        // Lloyd is the only clustering kernel, so no flag selects one.
        let err = parse_str("run mcf_r --kmeans-mode minibatch").unwrap_err();
        assert_eq!(err, "unknown flag: --kmeans-mode");
    }

    #[test]
    fn parses_lint() {
        let (name, p) = parse_str("lint").unwrap();
        assert_eq!(
            (name, p.operand(0), p.format),
            ("lint", None, LintFormat::Human)
        );
        assert!(!p.deny_warnings && p.artifacts.is_none() && p.explain.is_none());
        let (_, p) = parse_str("lint mcf_r --format json --deny-warnings --artifacts out").unwrap();
        assert_eq!((p.operand(0), p.format), (Some("mcf_r"), LintFormat::Json));
        assert!(p.deny_warnings);
        assert_eq!(p.artifacts.as_deref(), Some("out"));
        let (_, p) = parse_str("lint --explain SA140").unwrap();
        assert_eq!(p.explain.as_deref(), Some("SA140"));
        assert!(parse_str("lint --format yaml").is_err());
        assert!(parse_str("lint --artifacts").is_err());
        assert!(parse_str("lint --explain").is_err());
    }

    #[test]
    fn parses_plan() {
        let (name, p) = parse_str("plan mcf_r --strategy rss -o plan.json").unwrap();
        assert_eq!((name, p.operand(0)), ("plan", Some("mcf_r")));
        assert_eq!(p.strategy.as_deref(), Some("rss"));
        assert_eq!(p.out.as_deref(), Some("plan.json"));
        let (_, v) = parse_str("plan --validate plan.json").unwrap();
        assert_eq!(
            (v.operand(0), v.validate.as_deref()),
            (None, Some("plan.json"))
        );
        assert_eq!(
            parse_str("plan mcf_r --jobs 2").unwrap_err(),
            "plan refuses --jobs: the command never reads it"
        );
    }

    #[test]
    fn parses_audit() {
        let (name, p) = parse_str("audit").unwrap();
        assert_eq!((name, p.operand(0), p.update), ("audit", None, false));
        let (_, p) =
            parse_str("audit mcf_r --format json --deny-warnings --artifacts arts --update")
                .unwrap();
        assert_eq!((p.operand(0), p.format), (Some("mcf_r"), LintFormat::Json));
        assert!(p.deny_warnings && p.update);
        assert_eq!(p.artifacts.as_deref(), Some("arts"));
        assert_eq!(
            parse_str("audit --jobs 3").unwrap().1.jobs,
            Jobs::new(3).unwrap()
        );
        assert!(parse_str("audit --maxk 6").is_err(), "audit never clusters");
    }

    #[test]
    fn parses_perf() {
        let (name, p) = parse_str("perf").unwrap();
        assert_eq!(
            (name, p.quick, p.out, p.baseline),
            ("perf", false, None, None)
        );
        let (_, p) = parse_str("perf --quick -o BENCH_kernels.json --baseline old.json").unwrap();
        assert!(p.quick);
        assert_eq!(p.out.as_deref(), Some("BENCH_kernels.json"));
        assert_eq!(p.baseline.as_deref(), Some("old.json"));
        let (_, p) = parse_str("perf --validate BENCH_kernels.json").unwrap();
        assert_eq!(p.validate.as_deref(), Some("BENCH_kernels.json"));
        assert_eq!(
            parse_str("perf --quick --artifacts arts").unwrap_err(),
            "perf refuses --artifacts: the command never reads it"
        );
        assert!(
            parse_str("perf --scale 0.5").is_err(),
            "perf sizes its own inputs"
        );
        assert!(parse_str("perf --validate").is_err());
        assert!(parse_str("perf --baseline").is_err());
        assert!(parse_str("perf extra").is_err());
    }

    #[test]
    fn parses_serve() {
        let (name, p) = parse_str("serve").unwrap();
        assert_eq!(
            (name, p.addr.as_str()),
            ("serve", sampsim_serve::DEFAULT_ADDR)
        );
        assert_eq!(p.cache_dir, None);
        assert_eq!(p.queue_depth, sampsim_serve::DEFAULT_QUEUE_DEPTH);
        let (_, p) =
            parse_str("serve --addr 127.0.0.1:0 --cache-dir /tmp/c --queue-depth 4 --jobs 2")
                .unwrap();
        assert_eq!(p.addr, "127.0.0.1:0");
        assert_eq!(p.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!((p.queue_depth, p.jobs), (4, Jobs::new(2).unwrap()));
        assert!(parse_str("serve --queue-depth 0").is_err());
        assert!(parse_str("serve --queue-depth nope").is_err());
        assert!(parse_str("serve --addr").is_err());
        assert!(
            parse_str("serve --maxk 6").is_err(),
            "requests carry their own"
        );
    }

    #[test]
    fn parses_request() {
        let (name, p) = parse_str("request mcf_r").unwrap();
        assert_eq!(
            (name, p.operand(0), p.op),
            ("request", Some("mcf_r"), RequestOp::Run)
        );
        assert_eq!(
            (p.addr.as_str(), p.retries),
            (sampsim_serve::DEFAULT_ADDR, None)
        );
        let (_, p) = parse_str("request --addr 127.0.0.1:9 --shutdown").unwrap();
        assert_eq!(
            (p.addr.as_str(), p.op),
            ("127.0.0.1:9", RequestOp::Shutdown)
        );
        assert_eq!(parse_str("request --ping").unwrap().1.op, RequestOp::Ping);
        // --suite takes an optional comma-separated benchmark list.
        assert_eq!(parse_str("request --suite").unwrap().1.op, RequestOp::Suite);
        let (_, p) = parse_str("request mcf_r,omnetpp_s --suite --retries 2").unwrap();
        assert_eq!(
            (p.operand(0), p.op),
            (Some("mcf_r,omnetpp_s"), RequestOp::Suite)
        );
        assert_eq!(p.retries, Some(2));
        assert!(parse_str("request --ping --shutdown").is_err());
        assert!(parse_str("request mcf_r --retries 0").is_err());
        assert!(parse_str("request mcf_r --retries nope").is_err());
        assert!(
            parse_str("request mcf_r --jobs 2").is_err(),
            "the daemon's workers"
        );
    }

    #[test]
    fn parses_fleet() {
        let (name, p) = parse_str("fleet").unwrap();
        assert_eq!((name, p.shards, p.queue_depth), ("fleet", 2, 32));
        assert_eq!(p.addr, sampsim_serve::DEFAULT_ADDR);
        let (_, p) =
            parse_str("fleet --shards 3 --addr 127.0.0.1:0 --cache-dir /tmp/f --queue-depth 8")
                .unwrap();
        assert_eq!((p.shards, p.addr.as_str()), (3, "127.0.0.1:0"));
        assert_eq!((p.cache_dir.as_deref(), p.queue_depth), (Some("/tmp/f"), 8));
        assert!(parse_str("fleet --shards 0").is_err());
        assert!(parse_str("fleet --shards nope").is_err());
    }

    #[test]
    fn figure_defaults() {
        let (name, p) = parse_str("figure").unwrap();
        assert_eq!(name, "figure");
        assert_eq!(p, Args::default());
    }

    #[test]
    fn figure_flags_parse() {
        let (_, p) = parse_str("figure fig5 mcf_r --scale 0.5 --artifacts arts --jobs 3").unwrap();
        assert_eq!((p.operand(0), p.operand(1)), (Some("fig5"), Some("mcf_r")));
        assert_eq!(p.artifacts.as_deref(), Some("arts"));
        assert_eq!(p.scale.factor(), 0.5);
        assert_eq!(p.jobs, Jobs::new(3).unwrap());
        assert!(parse_str("figure fig5 mcf_r extra").is_err());
        assert!(parse_str("figure fig5 --reps 2").is_err());
    }

    #[test]
    fn figure_jobs_defaults_to_auto() {
        assert_eq!(parse_str("figure").unwrap().1.jobs, Jobs::Auto);
        assert_eq!(parse_str("figure --jobs auto").unwrap().1.jobs, Jobs::Auto);
        assert!(parse_str("figure --jobs 0").is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_str("frobnicate").is_err());
        assert!(parse_str("list --wat").is_err());
        assert!(parse_str("list extra").is_err());
        assert!(parse_str("profile x --scale nope").is_err());
        assert!(parse_str("profile x --scale -1").is_err());
        assert!(parse_str("plan mcf_r --scale 1e15").is_err());
        assert_eq!(
            parse_str("list --scale 0.5").unwrap_err(),
            "list refuses --scale: the command never reads it"
        );
    }

    /// Every flag a command declares parses, appears in `USAGE`, and
    /// every flag `USAGE` names is read by some command.
    #[test]
    fn usage_names_every_declared_flag_and_no_other() {
        let declared: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|c| c.flags.iter().copied())
            .collect();
        let named: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with('-') && word.len() > 1)
            .collect();
        for command in COMMANDS {
            for &flag in command.flags {
                assert!(named.contains(&flag), "USAGE never names {flag}");
                let value = match flag {
                    "--deny-warnings" | "--quick" | "--update" => "",
                    "--ping" | "--stats" | "--shutdown" | "--suite" => "",
                    "--format" => "json",
                    _ => "1",
                };
                let line = format!("{} {flag} {value}", command.name);
                let parsed = parse(line.split_whitespace().map(String::from));
                assert!(
                    parsed
                        .as_ref()
                        .is_ok_and(|(c, a)| c.name == command.name && a.given == [flag]),
                    "{line}: {:?}",
                    parsed.map(|(_, a)| a)
                );
            }
        }
        for flag in named {
            assert!(
                declared.contains(&flag),
                "USAGE names {flag}, which no command reads"
            );
        }
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 17);
        for name in names {
            assert!(
                USAGE.contains(&format!("\n  {name} ")),
                "USAGE never lists {name}"
            );
        }
    }
}
