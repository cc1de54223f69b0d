//! Command-line MEM extraction, MUMmer-style.
//!
//! `gpumem-cli --help` prints the usage: every subcommand with its
//! flags, generated from the one table (`COMMANDS`) the parser reads.
//!
//! `run` matches a query FASTA against a one-record reference FASTA.
//! The query file may hold many records; each is matched independently
//! (GPUMEM serves them one after another from one cached reference
//! session, each over up to `--query-threads` workers). Output: one
//! `ref_pos  query_pos  length  strand` line per match, 1-based
//! coordinates as in `mummer -maxmatch`, grouped by query record in
//! input order; with more than one query record, each line gains the
//! record name as a final column.
//!
//! `registry` manages a plain-text handle file (`name  path  min_len
//! seed_len`, tab-separated, `#gpumem-registry v1` header). `metrics
//! export` runs a query batch through a registry-hosted engine and
//! prints every serving counter on stdout in Prometheus text format or
//! the registry JSON shape — the exposition a scraper would pull from a
//! serving daemon; `--journal` also streams the structured event
//! journal to a JSONL file, one event object per line.
//!
//! Every GPUMEM configuration the CLI builds uses the paper's launch
//! geometry: 128 threads per block, 16 blocks per tile.
//!
//! Exit status: 0 on success and for `--help`; 2 for a usage error,
//! reported with the usage before any file is read; 1 for any other
//! failure (configuration, FASTA loading, a run).

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

use gpumem::baselines::{
    find_mems_both_strands, find_mems_parallel, EssaMem, MemFinder, Mummer, SlaMem, SparseMem,
    VariantFilter,
};
use gpumem::core::telemetry;
use gpumem::index::{check_dual_steps, max_coprime_steps};
use gpumem::seq::{
    map_reverse_mem, read_fasta, AmbigPolicy, FastaRecord, Mem, PackedSeq, SeqSet, Strand,
    StrandMem,
};
use gpumem::sim::sanitizer::Session;
use gpumem::sim::{Device, DeviceSpec, LaunchStats};
use gpumem::{
    Engine, EventSink, GpumemConfig, JsonlEventSink, MetricsSnapshot, Registry, RunOptions,
    RunOutput, RunRequest, SeedMode, Trace,
};

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Kind {
    /// None: the flag is on or off.
    Switch,
    /// Any text (a path, a seed mode), shown as the placeholder given.
    Text(&'static str),
    /// One of these words.
    Choice(&'static [&'static str]),
    /// An integer in `1..=max`, shown as the placeholder given.
    Count(&'static str, usize),
}
use Kind::{Choice, Count, Switch, Text};

/// One flag and its line of the usage.
struct Flag {
    name: &'static str,
    kind: Kind,
    help: &'static str,
}

const fn flag(name: &'static str, kind: Kind, help: &'static str) -> Flag {
    Flag { name, kind, help }
}

/// A step that takes a parsed command line.
type Step = fn(&Args) -> Result<(), String>;

/// One subcommand: the words that name it, the flags it takes, its
/// positionals and what runs it once they parse.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: &'static [&'static str],
    positionals: &'static [&'static str],
    /// A rule between flags that their kinds cannot state.
    check: Option<Step>,
    run: Step,
}

/// The most host threads, engine workers or modeled shards one command
/// may ask for. Each is paid for before any work starts: a thread, a
/// simulated device with its scratch, a plan entry with its statistics.
const MAX_WIDTH: usize = 256;

const TOOLS: &[&str] = &["gpumem", "mummer", "essamem", "sparsemem", "slamem"];

// One line per flag and a few per command, which rustfmt would spread
// over five and eight.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--tool", Choice(TOOLS), "finder (default gpumem)"),
    flag("--min-len", Count("L", u32::MAX as usize), "minimum MEM length (default 20)"),
    flag("--seed-len", Count("ls", usize::MAX), "GPUMEM seed length (default min(13, L))"),
    flag("--seed-mode", Text("ref|dual[:k1,k2]"), "GPUMEM seed sampling (default ref)"),
    flag("--sparseness", Count("K", usize::MAX), "essamem/sparsemem SA sparseness ≤ L (default 4)"),
    flag("--threads", Count("t", MAX_WIDTH), "CPU finder threads (default 1)"),
    flag("--query-threads", Count("n", MAX_WIDTH), "GPUMEM workers per query (default 1)"),
    flag("--shards", Count("n", MAX_WIDTH), "split modeled matching n ways (default 1)"),
    flag("--both-strands", Switch, "also match the query's reverse complement"),
    flag("--mum", Switch, "report only maximal unique matches"),
    flag("--rare", Count("t", usize::MAX), "report matches occurring ≤ t times in each"),
    flag("--stats", Switch, "print run statistics to stderr"),
    flag("--sanitize", Switch, "hazard-check every kernel launch, report to stderr"),
    flag("--trace", Text("out.json"), "write a Chrome trace of the run (gpumem only)"),
    flag("--metrics", Text("out.json"), "write the engine's metrics as JSON (gpumem only)"),
    flag("--profile", Switch, "print stage and phase tables to stderr (gpumem only)"),
    flag("--budget", Count("bytes", usize::MAX), "registry byte budget (default none)"),
    flag("--rounds", Count("N", usize::MAX), "times to warm every reference (default 2)"),
    flag("--format", Choice(&["prometheus", "json"]), "exposition (default prometheus)"),
    flag("--journal", Text("events.jsonl"), "also write the event journal"),
];

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command {
        name: "run", about: "extract MEMs", positionals: &["<reference.fa>", "<query.fa>"],
        flags: &["--tool", "--min-len", "--seed-len", "--seed-mode", "--sparseness", "--threads",
            "--query-threads", "--shards", "--both-strands", "--mum", "--rare", "--stats",
            "--sanitize", "--trace", "--metrics", "--profile"],
        check: Some(check_sparseness), run,
    },
    Command {
        name: "registry add", about: "validate a reference, append it to the handle file",
        positionals: &["<handles.tsv>", "<name>", "<reference.fa>"],
        flags: &["--min-len", "--seed-len"], check: None, run: registry_add,
    },
    Command {
        name: "registry list", about: "print a table of the hosted references",
        positionals: &["<handles.tsv>"], flags: &[], check: None, run: registry_list,
    },
    Command {
        name: "registry evict-stats", about: "warm every reference in rounds under the budget, \
            print the registry counters as JSON",
        positionals: &["<handles.tsv>"], flags: &["--budget", "--rounds"], check: None,
        run: registry_evict_stats,
    },
    Command {
        name: "metrics export", about: "run a batch, print the unified telemetry exposition",
        positionals: &["<reference.fa>", "<query.fa>"],
        flags: &["--format", "--min-len", "--seed-len", "--query-threads", "--shards", "--journal"],
        check: None, run: metrics_export,
    },
    Command {
        name: "bench-info", about: "print the device catalog and the tile geometry",
        positionals: &[], flags: &["--min-len"], check: None, run: bench_info,
    },
];

/// The table entry of flag `name`, which a command lists.
fn lookup(name: &str) -> &'static Flag {
    FLAGS
        .iter()
        .find(|flag| flag.name == name)
        .expect("every flag a command lists is in FLAGS")
}

/// One command line, parsed against its command's table entry: each
/// given flag's value (empty for a switch), checked against its kind.
struct Args {
    command: &'static Command,
    values: HashMap<&'static str, String>,
    positionals: Vec<String>,
}

impl Args {
    fn switch(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn count(&self, name: &str) -> Option<usize> {
        let value = self.values.get(name)?;
        Some(value.parse().expect("the parser checked every count"))
    }

    fn min_len(&self) -> u32 {
        let min_len = self.count("--min-len").unwrap_or(20);
        u32::try_from(min_len).expect("the table caps --min-len at u32::MAX")
    }

    /// The positionals, whose count the parser has checked.
    fn positionals<const N: usize>(&self) -> &[String; N] {
        self.positionals[..]
            .try_into()
            .expect("parsed positional count")
    }
}

impl Flag {
    fn placeholder(&self) -> String {
        match self.kind {
            Switch => String::new(),
            Text(value) | Count(value, _) => value.to_string(),
            Choice(words) => words.join("|"),
        }
    }

    /// Why `text` is not a value of this flag, if it is not.
    fn check_value(&self, text: &str) -> Result<(), String> {
        let name = self.name;
        match self.kind {
            Choice(words) if !words.contains(&text) => Err(format!(
                "bad {name} {text}: expected {}",
                words.join(" or ")
            )),
            Count(_, max) => match text.parse::<usize>() {
                Ok(0) => Err(format!("bad {name}: must be positive")),
                Ok(n) if n > max => Err(format!("bad {name}: must be at most {max}")),
                Ok(_) => Ok(()),
                Err(e) => Err(format!("bad {name}: {e}")),
            },
            Switch | Text(_) | Choice(_) => Ok(()),
        }
    }
}

/// Parse `argv` against the table: `None` for `--help` (anywhere), else
/// the command's arguments. Every usage error the table can judge is
/// found here, before any file is read.
fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
        return Ok(None);
    }
    let first = argv.first().ok_or("missing command")?;
    let words = |command: &Command| command.name.split(' ').count();
    let command = COMMANDS
        .iter()
        .find(|command| argv.iter().take(words(command)).eq(command.name.split(' ')))
        .ok_or_else(|| format!("unknown command {first}"))?;
    let mut args = Args {
        command,
        values: HashMap::new(),
        positionals: Vec::new(),
    };
    let mut rest = argv[words(command)..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            args.positionals.push(arg.clone());
            continue;
        }
        if !command.flags.contains(&arg.as_str()) {
            return Err(format!("unknown option {arg} for {}", command.name));
        }
        let flag = lookup(arg);
        let value = match flag.kind {
            Switch => String::new(),
            _ => rest
                .next()
                .ok_or_else(|| format!("missing value for {arg}"))?
                .clone(),
        };
        flag.check_value(&value)?;
        args.values.insert(flag.name, value);
    }
    if args.positionals.len() != command.positionals.len() {
        return Err(format!(
            "{} expects {} positional(s) {}, got {}",
            command.name,
            command.positionals.len(),
            command.positionals.join(" "),
            args.positionals.len()
        ));
    }
    if let Some(check) = command.check {
        check(&args)?;
    }
    Ok(Some(args))
}

/// Every subcommand with its flags, from the table the parser reads.
fn usage() -> String {
    let mut text = String::new();
    for command in COMMANDS {
        let mut synopsis = vec!["gpumem-cli", command.name];
        if !command.flags.is_empty() {
            synopsis.push("[OPTIONS]");
        }
        synopsis.extend(command.positionals);
        let lead = if text.is_empty() { "usage:" } else { "      " };
        text += &format!(
            "{lead} {}\n         {}\n",
            synopsis.join(" "),
            command.about
        );
        for flag in command.flags.iter().map(|name| lookup(name)) {
            let spec = format!("{} {}", flag.name, flag.placeholder());
            text += &format!("           {spec:<29} {}\n", flag.help);
        }
    }
    text
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(None) => {
            eprint!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprint!("error: {msg}\n\n{}", usage());
            ExitCode::from(2)
        }
        Ok(Some(args)) => match (args.command.run)(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
    }
}

/// The sparse suffix arrays sample every K-th suffix, so a match
/// shorter than K can fall between samples.
fn check_sparseness(args: &Args) -> Result<(), String> {
    let sparseness = args.count("--sparseness").unwrap_or(4);
    let min_len = args.min_len();
    if matches!(args.text("--tool"), Some("essamem" | "sparsemem")) && sparseness > min_len as usize
    {
        return Err(format!(
            "bad --sparseness: K = {sparseness} must not exceed --min-len {min_len}"
        ));
    }
    Ok(())
}

/// Resolve `--seed-mode ref|dual[:k1,k2]`. The auto `dual` form picks
/// the largest valid co-prime pair for `(L, ℓs)`; explicit pairs are
/// validated here so the structured [`gpumem::index::IndexError`]
/// message (non-co-prime, product over the coverage bound) reaches the
/// user before any index work starts.
fn parse_seed_mode(spec: &str, min_len: u32, seed_len: usize) -> Result<SeedMode, String> {
    if spec == "ref" {
        return Ok(SeedMode::RefOnly);
    }
    let rest = spec
        .strip_prefix("dual")
        .ok_or_else(|| format!("bad --seed-mode {spec}: expected ref or dual[:k1,k2]"))?;
    let (k1, k2) = if rest.is_empty() {
        max_coprime_steps(min_len, seed_len).map_err(|e| format!("bad --seed-mode: {e}"))?
    } else {
        let (k1, k2) = rest
            .strip_prefix(':')
            .and_then(|body| body.split_once(','))
            .ok_or_else(|| format!("bad --seed-mode {spec}: expected dual:<k1>,<k2>"))?;
        let k1 = k1.parse().map_err(|e| format!("bad --seed-mode k1: {e}"))?;
        let k2 = k2.parse().map_err(|e| format!("bad --seed-mode k2: {e}"))?;
        check_dual_steps(k1, k2, min_len, seed_len).map_err(|e| format!("bad --seed-mode: {e}"))?;
        (k1, k2)
    };
    Ok(SeedMode::DualSampled { k1, k2 })
}

/// The CLI's GPUMEM configuration: minimum MEM length `min_len` in the
/// paper's launch geometry (128 threads per block, 16 blocks per tile),
/// ℓs = `seed_len` if given (else the builder's default), and the seed
/// mode `seed_mode` (see [`parse_seed_mode`]), whose `dual` steps are
/// derived for the ℓs the configuration resolves to.
fn cli_config(
    min_len: u32,
    seed_len: Option<usize>,
    seed_mode: &str,
) -> Result<GpumemConfig, String> {
    let mut builder = GpumemConfig::builder(min_len)
        .threads_per_block(128)
        .blocks_per_tile(16);
    if let Some(seed_len) = seed_len {
        builder = builder.seed_len(seed_len);
    }
    let config = builder.clone().build().map_err(|e| e.to_string())?;
    match parse_seed_mode(seed_mode, min_len, config.seed_len)? {
        SeedMode::RefOnly => Ok(config),
        mode => builder.seed_mode(mode).build().map_err(|e| e.to_string()),
    }
}

fn load_records(path: &str) -> Result<Vec<FastaRecord>, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let records = read_fasta(BufReader::new(file), AmbigPolicy::Randomize(0))
        .map_err(|e| format!("{path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{path}: no FASTA records"));
    }
    Ok(records)
}

/// The one record of a reference FASTA. Every finder compares against
/// a single reference sequence, so a file with more records is refused
/// rather than silently cut to its first.
fn load_reference(path: &str) -> Result<PackedSeq, String> {
    let mut records = load_records(path)?;
    if records.len() > 1 {
        return Err(format!(
            "{path}: reference FASTA holds {} records; expected exactly one",
            records.len()
        ));
    }
    Ok(records.remove(0).seq)
}

/// Run `queries` as one request through an engine that hosts
/// `reference` in a one-entry registry (the paper's Tesla K20c, no
/// budget), so its metrics carry the registry counters. `cli_config`
/// and `--query-threads` shape the engine; `--shards`, `--trace` and
/// `--profile` the request; `--journal` receives its events. Returns
/// every query's output and the metrics after the batch, or the first
/// failed query's error.
fn serve(
    args: &Args,
    reference: PackedSeq,
    queries: &SeqSet,
) -> Result<(Vec<RunOutput>, MetricsSnapshot), String> {
    let seed_mode = args.text("--seed-mode").unwrap_or("ref");
    let config = cli_config(args.min_len(), args.count("--seed-len"), seed_mode)?;
    let sink: Option<Arc<dyn EventSink>> = match args.text("--journal") {
        Some(path) => Some(Arc::new(
            JsonlEventSink::create(path).map_err(|e| format!("{path}: {e}"))?,
        )),
        None => None,
    };
    let registry = Arc::new(Registry::new(DeviceSpec::tesla_k20c()));
    registry.set_event_sink(sink.clone());
    let mut builder = Engine::builder(reference)
        .config(config)
        .registry(registry)
        .name("cli")
        .threads(args.count("--query-threads").unwrap_or(1));
    if let Some(sink) = sink {
        builder = builder.event_sink(sink);
    }
    let engine = builder.build().map_err(|e| e.to_string())?;
    let options = RunOptions {
        trace: args.text("--trace").is_some() || args.switch("--profile"),
        shards: args.count("--shards").unwrap_or(1),
    };
    let outputs = engine
        .execute(&RunRequest::batch(queries).options(options))
        .into_iter()
        .zip(&queries.records)
        .map(|(output, span)| output.map_err(|e| format!("query {}: {e}", span.name)))
        .collect::<Result<_, _>>()?;
    Ok((outputs, engine.metrics()))
}

/// Forward-strand hits.
fn forward_hits(mems: &[Mem]) -> Vec<StrandMem> {
    let strand = Strand::Forward;
    mems.iter().map(|&mem| StrandMem { mem, strand }).collect()
}

/// Each query record's GPUMEM hits, in that record's coordinates.
fn run_gpumem(
    args: &Args,
    reference: &PackedSeq,
    records: &[FastaRecord],
    queries: &SeqSet,
) -> Result<Vec<Vec<StrandMem>>, String> {
    // Under --both-strands each record's reverse complement follows the
    // forward records in the same batch; coordinates map back per
    // record.
    let with_reverse = args.switch("--both-strands").then(|| {
        let reversed = records.iter().map(|record| FastaRecord {
            header: record.header.clone(),
            seq: record.seq.reverse_complement(),
        });
        SeqSet::from_records(&records.iter().cloned().chain(reversed).collect::<Vec<_>>())
    });
    let batch = with_reverse.as_ref().unwrap_or(queries);
    let (mut forward, metrics) = serve(args, reference.clone(), batch)?;
    let reverse = forward.split_off(records.len());

    if args.switch("--stats") {
        let stats = || forward.iter().map(|out| &out.result.stats);
        let tiles: usize = stats().map(|s| s.rows * s.cols).sum();
        let index: LaunchStats = stats().map(|s| s.index.clone()).sum();
        let matching: LaunchStats = stats().map(|s| s.matching.clone()).sum();
        eprintln!(
            "gpumem: {} tiles, modeled index {:.3} ms + match {:.3} ms, warp efficiency {:.2}",
            tiles,
            index.modeled_secs() * 1e3,
            matching.modeled_secs() * 1e3,
            matching.warp_efficiency(32)
        );
    }

    // Each forward query recorded its own span tree, one track per
    // worker; the merged trace keeps every query's tracks apart.
    if args.text("--trace").is_some() || args.switch("--profile") {
        let trace = Trace::merge(
            forward
                .iter_mut()
                .filter_map(|out| out.trace.take())
                .collect(),
        );
        if let Some(path) = args.text("--trace") {
            std::fs::write(path, trace.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        if args.switch("--profile") {
            eprint!("{}", trace.profile_report());
        }
    }
    if let Some(path) = args.text("--metrics") {
        std::fs::write(path, serde::json::to_string_pretty(&metrics))
            .map_err(|e| format!("{path}: {e}"))?;
    }

    let hits = forward.iter().zip(&queries.records).enumerate();
    Ok(hits
        .map(|(i, (out, span))| {
            let mut hits = forward_hits(&out.result.mems);
            let reverse = reverse.get(i).map_or(&[][..], |out| &out.result.mems);
            hits.extend(reverse.iter().map(|&mem| StrandMem {
                mem: map_reverse_mem(mem, span.len),
                strand: Strand::Reverse,
            }));
            hits.sort_unstable();
            hits
        })
        .collect())
}

/// Each query record's hits from CPU finder `tool`.
fn run_finder(
    args: &Args,
    tool: &str,
    reference: &PackedSeq,
    queries: &SeqSet,
) -> Result<Vec<Vec<StrandMem>>, String> {
    if ["--trace", "--metrics", "--profile"]
        .iter()
        .any(|name| args.values.contains_key(name))
    {
        return Err(format!(
            "--trace/--metrics/--profile require --tool gpumem (got {tool})"
        ));
    }
    let sparseness = args.count("--sparseness").unwrap_or(4);
    let finder: Box<dyn MemFinder> = match tool {
        "mummer" => Box::new(Mummer::build(reference)),
        "essamem" => Box::new(EssaMem::build(reference, sparseness)),
        "sparsemem" => Box::new(SparseMem::build(reference, sparseness)),
        "slamem" => Box::new(SlaMem::build(reference)),
        other => unreachable!("--tool {other} is not in the table"),
    };
    let (min_len, threads) = (args.min_len(), args.count("--threads").unwrap_or(1));
    let hits = |i| {
        let query = queries.record_seq(i);
        if args.switch("--both-strands") {
            find_mems_both_strands(finder.as_ref(), &query, min_len, threads)
        } else {
            forward_hits(&find_mems_parallel(
                finder.as_ref(),
                &query,
                min_len,
                threads,
            ))
        }
    };
    Ok((0..queries.records.len()).map(hits).collect())
}

fn run(args: &Args) -> Result<(), String> {
    let [ref_path, query_path] = args.positionals();
    let reference = load_reference(ref_path)?;
    let records = load_records(query_path)?;
    let queries = SeqSet::from_records(&records);

    // Under --sanitize every simulated kernel launch between here and
    // finish() is hazard-checked (only the gpumem tool launches kernels;
    // for CPU baselines the report is trivially clean).
    let session = args.switch("--sanitize").then(Session::start);
    let mut by_record = match args.text("--tool").unwrap_or("gpumem") {
        "gpumem" => run_gpumem(args, &reference, &records, &queries)?,
        tool => run_finder(args, tool, &reference, &queries)?,
    };
    if let Some(session) = session {
        let report = session.finish();
        eprint!("{report}");
        if !report.is_clean() {
            return Err(format!(
                "sanitizer detected {} hazard(s)",
                report.hazards.len() as u64 + report.suppressed
            ));
        }
    }

    // Variant filtering, per query record (forward-strand coordinates
    // only; reverse hits are filtered against the reverse complement
    // implicitly via their reference interval).
    if let Some(max_occ) = args.switch("--mum").then_some(1).or(args.count("--rare")) {
        for (i, hits) in by_record.iter_mut().enumerate() {
            let filter = VariantFilter::new(&reference, &queries.record_seq(i));
            let mems: Vec<Mem> = hits.iter().map(|h| h.mem).collect();
            let keep: std::collections::HashSet<Mem> =
                filter.rare_matches(&mems, max_occ).into_iter().collect();
            hits.retain(|h| keep.contains(&h.mem));
        }
    }

    if args.switch("--stats") {
        let total: usize = by_record.iter().map(Vec::len).sum();
        eprintln!("{} matches (L >= {})", total, args.min_len());
    }
    let name_column = by_record.len() > 1;
    let mut out = String::new();
    for (hits, span) in by_record.iter().zip(&queries.records) {
        for hit in hits {
            let strand = match hit.strand {
                Strand::Forward => '+',
                Strand::Reverse => '-',
            };
            out.push_str(&format!(
                "{:>10} {:>10} {:>8} {}",
                hit.mem.r + 1,
                hit.mem.q + 1,
                hit.mem.len,
                strand
            ));
            if name_column {
                out.push(' ');
                out.push_str(&span.name);
            }
            out.push('\n');
        }
    }
    print!("{out}");
    Ok(())
}

/// One line of a registry handle file.
struct HandleEntry {
    name: String,
    path: String,
    min_len: u32,
    seed_len: Option<usize>,
}

const HANDLE_HEADER: &str = "#gpumem-registry v1";

fn read_handle_file(path: &str) -> Result<Vec<HandleEntry>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = body.lines();
    if lines.next().map(str::trim) != Some(HANDLE_HEADER) {
        return Err(format!("{path}: missing `{HANDLE_HEADER}` header"));
    }
    let mut entries = Vec::new();
    for (n, line) in lines.enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 4 {
            return Err(format!(
                "{path}:{}: expected 4 tab-separated fields, got {}",
                n + 2,
                fields.len()
            ));
        }
        let min_len = fields[2]
            .parse()
            .map_err(|e| format!("{path}:{}: bad min_len: {e}", n + 2))?;
        let seed_len = match fields[3] {
            "-" => None,
            s => Some(
                s.parse()
                    .map_err(|e| format!("{path}:{}: bad seed_len: {e}", n + 2))?,
            ),
        };
        entries.push(HandleEntry {
            name: fields[0].to_string(),
            path: fields[1].to_string(),
            min_len,
            seed_len,
        });
    }
    Ok(entries)
}

/// Load every handle-file entry into `registry` under `cli_config`,
/// returning the handles in file order.
fn load_registry(
    registry: &Registry,
    entries: &[HandleEntry],
) -> Result<Vec<gpumem::RefHandle>, String> {
    entries
        .iter()
        .map(|entry| {
            let reference = Arc::new(load_reference(&entry.path)?);
            let config = cli_config(entry.min_len, entry.seed_len, "ref")
                .map_err(|e| format!("{}: {e}", entry.name))?;
            registry
                .add(&entry.name, reference, config)
                .map_err(|e| format!("{}: {e}", entry.name))
        })
        .collect()
}

fn registry_add(args: &Args) -> Result<(), String> {
    let [file, name, fasta] = args.positionals();
    if name.contains('\t') {
        return Err("registry add: name must not contain tabs".into());
    }
    let entry = HandleEntry {
        name: name.clone(),
        path: fasta.clone(),
        min_len: args.min_len(),
        seed_len: args.count("--seed-len"),
    };
    // Validate before writing: the FASTA must load and the session must
    // construct against the default device.
    let probe = Registry::new(DeviceSpec::tesla_k20c());
    load_registry(&probe, std::slice::from_ref(&entry))?;
    let info = probe.list().remove(0);

    let mut existing = match std::fs::metadata(file) {
        Ok(_) => read_handle_file(file)?,
        Err(_) => Vec::new(),
    };
    if existing.iter().any(|e| e.name == *name) {
        return Err(format!("registry add: name {name} already registered"));
    }
    existing.push(entry);
    let mut body = String::from(HANDLE_HEADER);
    body.push('\n');
    for e in &existing {
        body.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            e.name,
            e.path,
            e.min_len,
            e.seed_len.map_or("-".to_string(), |s| s.to_string())
        ));
    }
    std::fs::write(file, body).map_err(|e| format!("{file}: {e}"))?;
    println!(
        "registered {name}: {} bp, {} tile rows",
        info.ref_len, info.rows
    );
    Ok(())
}

fn registry_list(args: &Args) -> Result<(), String> {
    let [file] = args.positionals();
    let entries = read_handle_file(file)?;
    let registry = Registry::new(DeviceSpec::tesla_k20c());
    load_registry(&registry, &entries)?;
    println!(
        "{:<6} {:<20} {:>12} {:>8} {:>10} {:>14}",
        "handle", "name", "ref_bp", "rows", "resident", "bytes"
    );
    for info in registry.list() {
        println!(
            "{:<6} {:<20} {:>12} {:>8} {:>10} {:>14}",
            info.handle.id(),
            info.name,
            info.ref_len,
            info.rows,
            info.resident_rows,
            info.resident_bytes
        );
    }
    Ok(())
}

fn registry_evict_stats(args: &Args) -> Result<(), String> {
    let [file] = args.positionals();
    let entries = read_handle_file(file)?;
    let registry = match args.count("--budget") {
        Some(bytes) => Registry::with_budget(
            DeviceSpec::tesla_k20c(),
            u64::try_from(bytes).expect("a usize fits in a u64"),
        ),
        None => Registry::new(DeviceSpec::tesla_k20c()),
    };
    let handles = load_registry(&registry, &entries)?;
    // Warm every reference `--rounds` times in file order: under a
    // budget smaller than the combined index footprint, each warm of a
    // cold reference evicts the coldest resident one — the churn whose
    // counters this command reports.
    let device = Device::new(registry.spec().clone());
    for _ in 0..args.count("--rounds").unwrap_or(2) {
        for &handle in &handles {
            let session = registry
                .session(handle)
                .expect("loaded handle stays resolvable");
            session.warm(&device);
            registry.touch(handle);
        }
    }
    println!("{}", serde::json::to_string_pretty(&registry.stats()));
    Ok(())
}

/// Run a query batch through a registry-hosted engine and print the
/// unified telemetry exposition — every `MetricsSnapshot`,
/// `LaunchStats`, `RegistryStats`, and shard counter, in Prometheus
/// text format or the registry JSON shape.
fn metrics_export(args: &Args) -> Result<(), String> {
    let [ref_path, query_path] = args.positionals();
    let reference = load_reference(ref_path)?;
    let queries = SeqSet::from_records(&load_records(query_path)?);
    let (_, snapshot) = serve(args, reference, &queries)?;
    match args.text("--format") {
        Some("json") => println!("{}", telemetry::render_json(&snapshot)),
        _ => print!("{}", telemetry::render_prometheus(&snapshot)),
    }
    Ok(())
}

fn bench_info(args: &Args) -> Result<(), String> {
    let config = cli_config(args.min_len(), None, "ref")?;
    println!(
        "{:<12} {:>4} {:>9} {:>5} {:>10} {:>14}",
        "device", "SMs", "cores/SM", "warp", "clock_mhz", "mem_bytes"
    );
    for spec in [
        DeviceSpec::tesla_k20c(),
        DeviceSpec::tesla_k40(),
        DeviceSpec::test_tiny(),
    ] {
        println!(
            "{:<12} {:>4} {:>9} {:>5} {:>10.0} {:>14}",
            spec.name,
            spec.sm_count,
            spec.cores_per_sm,
            spec.warp_size,
            spec.clock_hz / 1e6,
            spec.global_mem_bytes
        );
    }
    println!(
        "\nconfig: min_len {} seed_len {} step {} -> tile_len {} ({} threads/block x {} blocks/tile)",
        config.min_len,
        config.seed_len,
        config.step,
        config.tile_len(),
        config.threads_per_block,
        config.blocks_per_tile
    );
    println!(
        "tile-row working set: ~{} bytes",
        gpumem::core::pipeline::device_memory_estimate(&config)
    );
    Ok(())
}
