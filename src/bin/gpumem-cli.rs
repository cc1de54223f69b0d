//! Command-line MEM extraction, MUMmer-style.
//!
//! ```text
//! gpumem-cli run [OPTIONS] <reference.fa> <query.fa>   extract MEMs
//! gpumem-cli registry <add|list|evict-stats> ...       manage a reference set
//! gpumem-cli metrics export [OPTIONS] <ref.fa> <query.fa>
//!                                                      run a batch, print the unified
//!                                                      telemetry exposition
//! gpumem-cli bench-info [--min-len L]                  device catalog + tile geometry
//! gpumem-cli bench-info --check [--max-regress R] [--history f]
//!                                                      flag regressions against the
//!                                                      recorded bench trajectory
//!
//! The bare flag form `gpumem-cli [OPTIONS] <ref> <query>` still works
//! as an alias for `run` but is deprecated (a note goes to stderr).
//!
//! RUN OPTIONS:
//!   --tool <gpumem|mummer|essamem|sparsemem|slamem>   finder (default gpumem)
//!   --min-len <L>        minimum MEM length (default 20)
//!   --seed-len <ls>      GPUMEM seed length (default min(13, L))
//!   --seed-mode <m>      GPUMEM seed sampling: `ref` (reference-only,
//!                        Eq. 1 sparsification, default) or
//!                        `dual[:k1,k2]` (copMEM-style dual-genome
//!                        sampling with co-prime steps; omitting k1,k2
//!                        picks the largest valid pair automatically)
//!   --sparseness <K>     sparse-SA sparseness for essamem/sparsemem (default 4)
//!   --threads <t>        CPU finder threads (default 1)
//!   --query-threads <n>  GPUMEM query workers for multi-record query
//!                        FASTA (default 1)
//!   --shards <n>         split each query's tile rows across n
//!                        simulated devices and merge (default 1; the
//!                        merged MEM set is byte-identical to n = 1)
//!   --both-strands       also match the reverse complement of the query
//!   --mum                report only maximal unique matches
//!   --rare <t>           report matches occurring ≤ t times in each sequence
//!   --stats              print run statistics to stderr
//!   --sanitize           run kernels under the shadow-memory hazard
//!                        sanitizer; report to stderr, fail on hazards
//!   --trace <path>       write a Chrome Trace Event JSON of the run
//!                        (open in Perfetto / chrome://tracing);
//!                        gpumem only
//!   --metrics <path>     write the serving engine's metrics snapshot
//!                        (latency histogram, index-cache, workers) as
//!                        JSON; gpumem only
//!   --profile            print a per-stage/per-phase profile table to
//!                        stderr; gpumem only
//! ```
//!
//! The query FASTA may hold many records; each is matched independently
//! (GPUMEM serves them all from one cached reference session, in
//! parallel across `--query-threads` workers). Output: one
//! `ref_pos  query_pos  length  strand` line per match, 1-based
//! coordinates as in `mummer -maxmatch`, grouped by query record in
//! input order; with more than one query record, each line gains the
//! record name as a final column.
//!
//! `registry` manages a plain-text handle file (`name  path  min_len
//! seed_len`, tab-separated, `#gpumem-registry v1` header):
//!
//! ```text
//! gpumem-cli registry add <handles.tsv> <name> <reference.fa>
//!            [--min-len L] [--seed-len ls]     validate + append an entry
//! gpumem-cli registry list <handles.tsv>       table of hosted references
//! gpumem-cli registry evict-stats <handles.tsv>
//!            [--budget <bytes>] [--rounds N]   warm every reference in
//!                                              rounds under the byte
//!                                              budget, print the
//!                                              registry counters as JSON
//! ```
//!
//! `metrics export` runs a query batch through a registry-hosted engine
//! and prints every serving counter on stdout in Prometheus text format
//! (default) or the registry JSON shape — the same exposition a scraper
//! would pull from a serving daemon:
//!
//! ```text
//! gpumem-cli metrics export [--format prometheus|json] [--min-len L]
//!            [--seed-len ls] [--query-threads n] [--shards n]
//!            [--journal events.jsonl] <reference.fa> <query.fa>
//! ```
//!
//! `--journal` additionally streams the structured event journal
//! (run-lifecycle, index-build, registry pin/evict, shard dispatch) to a
//! JSONL file, one event object per line.
//!
//! `bench-info --check` reads the bench trajectory the `quick` bench
//! appends to `results/bench_history.jsonl` and fails (exit 1) if the
//! latest entry regresses more than `--max-regress` (default 0.20)
//! against the best earlier entry with the same `rustc` and `nproc` —
//! the local mirror of the CI bench-smoke gate.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

use gpumem::baselines::{
    find_mems_both_strands, EssaMem, MemFinder, Mummer, SlaMem, SparseMem, VariantFilter,
};
use gpumem::core::telemetry;
use gpumem::index::{check_dual_steps, max_coprime_steps};
use gpumem::seq::{
    read_fasta, AmbigPolicy, FastaRecord, Mem, PackedSeq, SeqSet, Strand, StrandMem,
};
use gpumem::sim::{Device, DeviceSpec, LaunchStats};
use gpumem::{
    Engine, EventSink, GpumemConfig, GpumemResult, JsonlEventSink, Registry, RunError, RunOptions,
    RunRequest, SeedMode, Trace,
};

struct Options {
    tool: String,
    min_len: u32,
    seed_len: Option<usize>,
    seed_mode: String,
    sparseness: usize,
    threads: usize,
    query_threads: usize,
    shards: usize,
    both_strands: bool,
    mum: bool,
    rare: Option<usize>,
    stats: bool,
    sanitize: bool,
    trace: Option<String>,
    metrics: Option<String>,
    profile: bool,
    reference: String,
    query: String,
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut args = argv.iter().cloned();
    let mut opts = Options {
        tool: "gpumem".into(),
        min_len: 20,
        seed_len: None,
        seed_mode: "ref".into(),
        sparseness: 4,
        threads: 1,
        query_threads: 1,
        shards: 1,
        both_strands: false,
        mum: false,
        rare: None,
        stats: false,
        sanitize: false,
        trace: None,
        metrics: None,
        profile: false,
        reference: String::new(),
        query: String::new(),
    };
    let mut positional = Vec::new();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--tool" => opts.tool = value("--tool")?,
            "--min-len" => {
                opts.min_len = value("--min-len")?
                    .parse()
                    .map_err(|e| format!("bad --min-len: {e}"))?
            }
            "--seed-len" => {
                opts.seed_len = Some(
                    value("--seed-len")?
                        .parse()
                        .map_err(|e| format!("bad --seed-len: {e}"))?,
                )
            }
            "--seed-mode" => opts.seed_mode = value("--seed-mode")?,
            "--sparseness" => {
                opts.sparseness = value("--sparseness")?
                    .parse()
                    .map_err(|e| format!("bad --sparseness: {e}"))?
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--query-threads" => {
                opts.query_threads = value("--query-threads")?
                    .parse()
                    .map_err(|e| format!("bad --query-threads: {e}"))?;
                if opts.query_threads == 0 {
                    return Err("bad --query-threads: must be positive".into());
                }
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?;
                if opts.shards == 0 {
                    return Err("bad --shards: must be positive".into());
                }
            }
            "--both-strands" => opts.both_strands = true,
            "--mum" => opts.mum = true,
            "--rare" => {
                opts.rare = Some(
                    value("--rare")?
                        .parse()
                        .map_err(|e| format!("bad --rare: {e}"))?,
                )
            }
            "--stats" => opts.stats = true,
            "--sanitize" => opts.sanitize = true,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--metrics" => opts.metrics = Some(value("--metrics")?),
            "--profile" => opts.profile = true,
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_string()),
        }
    }
    match positional.len() {
        2 => {
            opts.reference = positional.remove(0);
            opts.query = positional.remove(0);
            Ok(opts)
        }
        n => Err(format!(
            "expected <reference.fa> <query.fa>, got {n} positionals"
        )),
    }
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
        let body = rest
            .strip_prefix(':')
            .and_then(|body| body.split_once(','))
            .ok_or_else(|| format!("bad --seed-mode {spec}: expected dual:<k1>,<k2>"))?;
        let k1 = body
            .0
            .parse()
            .map_err(|e| format!("bad --seed-mode k1: {e}"))?;
        let k2 = body
            .1
            .parse()
            .map_err(|e| format!("bad --seed-mode k2: {e}"))?;
        check_dual_steps(k1, k2, min_len, seed_len).map_err(|e| format!("bad --seed-mode: {e}"))?;
        (k1, k2)
    };
    Ok(SeedMode::DualSampled { k1, k2 })
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

/// One query record's matches, in that record's coordinates.
struct RecordHits {
    name: String,
    hits: Vec<StrandMem>,
}

/// Turn a batch result into per-record results, surfacing the first
/// failed query as the CLI error.
fn collect_batch(
    queries: &SeqSet,
    results: Vec<Result<GpumemResult, RunError>>,
) -> Result<Vec<GpumemResult>, String> {
    results
        .into_iter()
        .zip(&queries.records)
        .map(|(result, span)| result.map_err(|e| format!("query {}: {e}", span.name)))
        .collect()
}

/// Run a batch under explicit [`RunOptions`] and keep only the results.
fn batch_results(
    engine: &Engine,
    queries: &SeqSet,
    options: &RunOptions,
) -> Vec<Result<GpumemResult, RunError>> {
    engine
        .execute(&RunRequest::batch(queries).options(options.clone()))
        .into_iter()
        .map(|r| r.map(|out| out.result))
        .collect()
}

fn run_gpumem(
    opts: &Options,
    reference: &PackedSeq,
    queries: &SeqSet,
) -> Result<Vec<RecordHits>, String> {
    // Mirror the builder's seed-length default so `--seed-mode dual`
    // derives its co-prime pair from the length the index will use.
    let seed_len = opts
        .seed_len
        .unwrap_or_else(|| 13usize.min(opts.min_len as usize));
    let seed_mode = parse_seed_mode(&opts.seed_mode, opts.min_len, seed_len)?;
    let mut builder = GpumemConfig::builder(opts.min_len)
        .threads_per_block(128)
        .blocks_per_tile(16)
        .seed_mode(seed_mode);
    if let Some(seed_len) = opts.seed_len {
        builder = builder.seed_len(seed_len);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    // Host the session in a (single-reference, unbounded) registry so
    // `--metrics` exports the registry counters alongside the serving
    // metrics; the spec stays the paper's Tesla K20c.
    let registry = Arc::new(Registry::new(DeviceSpec::tesla_k20c()));
    let engine = Engine::builder(reference.clone())
        .config(config)
        .registry(Arc::clone(&registry))
        .name("cli")
        .threads(opts.query_threads)
        .build()
        .map_err(|e| e.to_string())?;
    let options = RunOptions {
        shards: opts.shards,
        ..RunOptions::default()
    };

    // Tracing serializes queries onto worker 0 so each gets its own
    // span tree; the merged trace lays the queries out one per track.
    let tracing = opts.trace.is_some() || opts.profile;
    let mut traces = Vec::new();
    let forward = if tracing {
        let traced = RunOptions {
            trace: true,
            ..options.clone()
        };
        let mut results = Vec::with_capacity(queries.records.len());
        for (i, span) in queries.records.iter().enumerate() {
            let query = queries.record_seq(i);
            let out = engine
                .execute(&RunRequest::query(&query).options(traced.clone()))
                .pop()
                .expect("one query yields one output")
                .map_err(|e| format!("query {}: {e}", span.name))?;
            results.push(out.result);
            traces.push(out.trace.expect("traced run records a trace"));
        }
        results
    } else {
        collect_batch(queries, batch_results(&engine, queries, &options))?
    };
    let reverse = if opts.both_strands {
        // Reverse-complement each record independently; coordinates map
        // back per record.
        let rc_records: Vec<FastaRecord> = queries
            .records
            .iter()
            .enumerate()
            .map(|(i, span)| FastaRecord {
                header: span.name.clone(),
                seq: queries.record_seq(i).reverse_complement(),
            })
            .collect();
        let rc_set = SeqSet::from_records(&rc_records);
        Some(collect_batch(
            queries,
            batch_results(&engine, &rc_set, &options),
        )?)
    } else {
        None
    };

    if opts.stats {
        let tiles: usize = forward.iter().map(|r| r.stats.rows * r.stats.cols).sum();
        let index: LaunchStats = forward.iter().map(|r| r.stats.index.clone()).sum();
        let matching: LaunchStats = forward.iter().map(|r| r.stats.matching.clone()).sum();
        eprintln!(
            "gpumem: {} tiles, modeled index {:.3} ms + match {:.3} ms, warp efficiency {:.2}",
            tiles,
            index.modeled_secs() * 1e3,
            matching.modeled_secs() * 1e3,
            matching.warp_efficiency(32)
        );
    }

    if tracing {
        let trace = Trace::merge(traces);
        if let Some(path) = &opts.trace {
            std::fs::write(path, trace.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        if opts.profile {
            eprint!("{}", trace.profile_report());
        }
    }
    if let Some(path) = &opts.metrics {
        std::fs::write(path, engine.metrics().to_json()).map_err(|e| format!("{path}: {e}"))?;
    }

    let mut out = Vec::with_capacity(queries.records.len());
    for (i, span) in queries.records.iter().enumerate() {
        let mut hits: Vec<StrandMem> = forward[i]
            .mems
            .iter()
            .map(|&mem| StrandMem {
                mem,
                strand: Strand::Forward,
            })
            .collect();
        if let Some(reverse) = &reverse {
            hits.extend(reverse[i].mems.iter().map(|&mem| StrandMem {
                mem: gpumem::seq::map_reverse_mem(mem, span.len),
                strand: Strand::Reverse,
            }));
        }
        hits.sort_unstable();
        out.push(RecordHits {
            name: span.name.clone(),
            hits,
        });
    }
    Ok(out)
}

fn run_finder(
    opts: &Options,
    reference: &PackedSeq,
    queries: &SeqSet,
) -> Result<Vec<RecordHits>, String> {
    if opts.tool != "gpumem" && (opts.trace.is_some() || opts.metrics.is_some() || opts.profile) {
        return Err(format!(
            "--trace/--metrics/--profile require --tool gpumem (got {})",
            opts.tool
        ));
    }
    let finder: Box<dyn MemFinder> = match opts.tool.as_str() {
        "mummer" => Box::new(Mummer::build(reference)),
        "essamem" => Box::new(EssaMem::build(reference, opts.sparseness)),
        "sparsemem" => Box::new(SparseMem::build(reference, opts.sparseness)),
        "slamem" => Box::new(SlaMem::build(reference)),
        // GPUMEM path handled separately (simulated device, batch
        // engine).
        "gpumem" => return run_gpumem(opts, reference, queries),
        other => return Err(format!("unknown tool {other}")),
    };
    let mut out = Vec::with_capacity(queries.records.len());
    for (i, span) in queries.records.iter().enumerate() {
        let query = queries.record_seq(i);
        let hits = if opts.both_strands {
            find_mems_both_strands(finder.as_ref(), &query, opts.min_len, opts.threads)
        } else {
            gpumem::baselines::find_mems_parallel(
                finder.as_ref(),
                &query,
                opts.min_len,
                opts.threads,
            )
            .into_iter()
            .map(|mem| StrandMem {
                mem,
                strand: Strand::Forward,
            })
            .collect()
        };
        out.push(RecordHits {
            name: span.name.clone(),
            hits,
        });
    }
    Ok(out)
}

fn usage() {
    eprintln!(
        "usage: gpumem-cli run [--tool T] [--min-len L] [--seed-len ls] [--seed-mode ref|dual[:k1,k2]] [--sparseness K] [--threads t] [--query-threads n] [--shards n] [--both-strands] [--mum] [--rare t] [--stats] [--sanitize] [--trace out.json] [--metrics out.json] [--profile] <reference.fa> <query.fa>\n       gpumem-cli registry add <handles.tsv> <name> <reference.fa> [--min-len L] [--seed-len ls]\n       gpumem-cli registry list <handles.tsv>\n       gpumem-cli registry evict-stats <handles.tsv> [--budget bytes] [--rounds N]\n       gpumem-cli metrics export [--format prometheus|json] [--min-len L] [--seed-len ls] [--query-threads n] [--shards n] [--journal events.jsonl] <reference.fa> <query.fa>\n       gpumem-cli bench-info [--min-len L] [--check [--max-regress R] [--history results/bench_history.jsonl]]"
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => run_main(&argv[1..]),
        Some("registry") => to_exit_code(registry_main(&argv[1..])),
        Some("metrics") => to_exit_code(metrics_main(&argv[1..])),
        Some("bench-info") => to_exit_code(bench_info_main(&argv[1..])),
        Some("--help") | Some("-h") => {
            usage();
            ExitCode::SUCCESS
        }
        None => {
            usage();
            ExitCode::from(2)
        }
        _ => {
            // The pre-subcommand flag form: keep it working, nudge once.
            eprintln!("note: flag-style invocation is deprecated; use `gpumem-cli run ...`");
            run_main(&argv)
        }
    }
}

fn to_exit_code(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
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

fn entry_config(entry: &HandleEntry) -> Result<GpumemConfig, String> {
    let mut builder = GpumemConfig::builder(entry.min_len)
        .threads_per_block(128)
        .blocks_per_tile(16);
    if let Some(seed_len) = entry.seed_len {
        builder = builder.seed_len(seed_len);
    }
    builder.build().map_err(|e| format!("{}: {e}", entry.name))
}

/// Load every handle-file entry into `registry`, returning the handles
/// in file order.
fn load_registry(
    registry: &Registry,
    entries: &[HandleEntry],
) -> Result<Vec<gpumem::RefHandle>, String> {
    entries
        .iter()
        .map(|entry| {
            let reference = Arc::new(load_reference(&entry.path)?);
            registry
                .add(&entry.name, reference, entry_config(entry)?)
                .map_err(|e| format!("{}: {e}", entry.name))
        })
        .collect()
}

fn registry_main(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv
        .split_first()
        .ok_or("registry: expected add, list, or evict-stats")?;
    match cmd.as_str() {
        "add" => registry_add(rest),
        "list" => registry_list(rest),
        "evict-stats" => registry_evict_stats(rest),
        other => Err(format!(
            "registry: unknown subcommand {other} (expected add, list, or evict-stats)"
        )),
    }
}

fn registry_add(argv: &[String]) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut min_len = 20u32;
    let mut seed_len = None;
    let mut args = argv.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min-len" => {
                min_len = args
                    .next()
                    .ok_or("missing value for --min-len")?
                    .parse()
                    .map_err(|e| format!("bad --min-len: {e}"))?
            }
            "--seed-len" => {
                seed_len = Some(
                    args.next()
                        .ok_or("missing value for --seed-len")?
                        .parse()
                        .map_err(|e| format!("bad --seed-len: {e}"))?,
                )
            }
            other if other.starts_with("--") => {
                return Err(format!("registry add: unknown option {other}"))
            }
            other => positional.push(other.to_string()),
        }
    }
    let [file, name, fasta] = positional.as_slice() else {
        return Err(format!(
            "registry add: expected <handles.tsv> <name> <reference.fa>, got {} positionals",
            positional.len()
        ));
    };
    if name.contains('\t') {
        return Err("registry add: name must not contain tabs".into());
    }
    let entry = HandleEntry {
        name: name.clone(),
        path: fasta.clone(),
        min_len,
        seed_len,
    };
    // Validate before writing: the FASTA must load and the session must
    // construct against the default device.
    let reference = Arc::new(load_reference(fasta)?);
    let ref_len = reference.len();
    let probe = Registry::new(DeviceSpec::tesla_k20c());
    probe
        .add(name, reference, entry_config(&entry)?)
        .map_err(|e| format!("{name}: {e}"))?;
    let rows = probe.list()[0].rows;

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
    println!("registered {name}: {ref_len} bp, {rows} tile rows");
    Ok(())
}

fn registry_list(argv: &[String]) -> Result<(), String> {
    let [file] = argv else {
        return Err("registry list: expected <handles.tsv>".into());
    };
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

fn registry_evict_stats(argv: &[String]) -> Result<(), String> {
    let mut file = None;
    let mut budget: Option<u64> = None;
    let mut rounds = 2usize;
    let mut args = argv.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" => {
                budget = Some(
                    args.next()
                        .ok_or("missing value for --budget")?
                        .parse()
                        .map_err(|e| format!("bad --budget: {e}"))?,
                )
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .ok_or("missing value for --rounds")?
                    .parse()
                    .map_err(|e| format!("bad --rounds: {e}"))?
            }
            other if other.starts_with("--") => {
                return Err(format!("registry evict-stats: unknown option {other}"))
            }
            other => {
                if file.replace(other.to_string()).is_some() {
                    return Err("registry evict-stats: expected one <handles.tsv>".into());
                }
            }
        }
    }
    let file = file.ok_or("registry evict-stats: expected <handles.tsv>")?;
    let entries = read_handle_file(&file)?;
    let registry = match budget {
        Some(bytes) => Registry::with_budget(DeviceSpec::tesla_k20c(), bytes),
        None => Registry::new(DeviceSpec::tesla_k20c()),
    };
    let handles = load_registry(&registry, &entries)?;
    // Warm every reference `rounds` times in file order: under a budget
    // smaller than the combined index footprint, each warm of a cold
    // reference evicts the coldest resident one — the churn whose
    // counters this command reports.
    let device = Device::new(registry.spec().clone());
    for _ in 0..rounds {
        for &handle in &handles {
            let session = registry
                .session(handle)
                .expect("loaded handle stays resolvable");
            session.warm(&device);
            registry.touch(handle);
        }
    }
    println!("{}", registry.stats().to_json());
    Ok(())
}

fn metrics_main(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or("metrics: expected export")?;
    match cmd.as_str() {
        "export" => metrics_export(rest),
        other => Err(format!(
            "metrics: unknown subcommand {other} (expected export)"
        )),
    }
}

/// Run a query batch through a registry-hosted engine and print the
/// unified telemetry exposition — every `MetricsSnapshot`,
/// `LaunchStats`, `RegistryStats`, and shard counter, in Prometheus
/// text format or the registry JSON shape.
fn metrics_export(argv: &[String]) -> Result<(), String> {
    let mut format = "prometheus".to_string();
    let mut min_len = 20u32;
    let mut seed_len: Option<usize> = None;
    let mut query_threads = 1usize;
    let mut shards = 1usize;
    let mut journal: Option<String> = None;
    let mut positional = Vec::new();
    let mut args = argv.iter().cloned();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--format" => format = value("--format")?,
            "--min-len" => {
                min_len = value("--min-len")?
                    .parse()
                    .map_err(|e| format!("bad --min-len: {e}"))?
            }
            "--seed-len" => {
                seed_len = Some(
                    value("--seed-len")?
                        .parse()
                        .map_err(|e| format!("bad --seed-len: {e}"))?,
                )
            }
            "--query-threads" => {
                query_threads = value("--query-threads")?
                    .parse()
                    .map_err(|e| format!("bad --query-threads: {e}"))?;
                if query_threads == 0 {
                    return Err("bad --query-threads: must be positive".into());
                }
            }
            "--shards" => {
                shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?;
                if shards == 0 {
                    return Err("bad --shards: must be positive".into());
                }
            }
            "--journal" => journal = Some(value("--journal")?),
            other if other.starts_with("--") => {
                return Err(format!("metrics export: unknown option {other}"))
            }
            other => positional.push(other.to_string()),
        }
    }
    if format != "prometheus" && format != "json" {
        return Err(format!(
            "bad --format {format}: expected prometheus or json"
        ));
    }
    let [ref_path, query_path] = positional.as_slice() else {
        return Err(format!(
            "metrics export: expected <reference.fa> <query.fa>, got {} positionals",
            positional.len()
        ));
    };
    let reference = load_reference(ref_path)?;
    let queries = SeqSet::from_records(&load_records(query_path)?);
    let mut cfg = GpumemConfig::builder(min_len)
        .threads_per_block(128)
        .blocks_per_tile(16);
    if let Some(seed_len) = seed_len {
        cfg = cfg.seed_len(seed_len);
    }
    let config = cfg.build().map_err(|e| e.to_string())?;
    let registry = Arc::new(Registry::new(DeviceSpec::tesla_k20c()));
    let sink: Option<Arc<JsonlEventSink>> = match &journal {
        Some(path) => Some(Arc::new(
            JsonlEventSink::create(path).map_err(|e| format!("{path}: {e}"))?,
        )),
        None => None,
    };
    if let Some(sink) = &sink {
        registry.set_event_sink(Some(Arc::clone(sink) as Arc<dyn EventSink>));
    }
    let mut builder = Engine::builder(reference)
        .config(config)
        .registry(Arc::clone(&registry))
        .name("cli")
        .threads(query_threads);
    if let Some(sink) = &sink {
        builder = builder.event_sink(Arc::clone(sink) as Arc<dyn EventSink>);
    }
    let engine = builder.build().map_err(|e| e.to_string())?;
    let options = RunOptions {
        shards,
        ..RunOptions::default()
    };
    collect_batch(&queries, batch_results(&engine, &queries, &options))?;
    let snapshot = engine.metrics();
    match format.as_str() {
        "prometheus" => print!("{}", telemetry::render_prometheus(&snapshot)),
        _ => println!("{}", telemetry::render_json(&snapshot)),
    }
    Ok(())
}

/// The history fields where smaller is better (wall seconds).
const HISTORY_LOWER_BETTER: [&str; 2] = ["wall_s", "match_wall_s"];
/// The history fields where larger is better (throughput, speedup
/// ratios).
const HISTORY_HIGHER_BETTER: [&str; 3] = [
    "qps_batch",
    "seedmode_l300_modeled_ratio",
    "sharded_modeled_ratio",
];

/// Compare the newest trajectory entry against the best earlier entry
/// per metric; fail on any regression beyond `max_regress`. Only
/// earlier entries from the same toolchain (`rustc`) and CPU count
/// (`nproc`) count: wall times from another build or machine are not
/// comparable.
fn bench_check(history: &str, max_regress: f64) -> Result<(), String> {
    let body = match std::fs::read_to_string(history) {
        Ok(body) => body,
        Err(_) => {
            println!("bench-check: no history at {history}; nothing to check");
            return Ok(());
        }
    };
    let entries: Vec<serde::json::Value> = body
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| serde::json::parse(line).map_err(|e| format!("{history}:{}: {e}", n + 1)))
        .collect::<Result<_, _>>()?;
    if entries.len() < 2 {
        println!(
            "bench-check: {} history entr{} at {history}; need 2+ to compare",
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" }
        );
        return Ok(());
    }
    let (last, earlier) = entries.split_last().expect("len >= 2");
    fn machine(entry: &serde::json::Value) -> (Option<&str>, Option<f64>) {
        (
            entry.get("rustc").and_then(serde::json::Value::as_str),
            entry.get("nproc").and_then(serde::json::Value::as_f64),
        )
    }
    let (prior, skipped): (Vec<_>, Vec<_>) =
        earlier.iter().partition(|e| machine(e) == machine(last));
    println!(
        "bench-check: comparing with {} earlier entr{}; skipped {} from another rustc or nproc",
        prior.len(),
        if prior.len() == 1 { "y" } else { "ies" },
        skipped.len()
    );
    if prior.is_empty() {
        return Ok(());
    }
    let field = |entry: &serde::json::Value, name: &str| {
        entry.get(name).and_then(serde::json::Value::as_f64)
    };
    let mut failures = Vec::new();
    for name in HISTORY_LOWER_BETTER {
        let Some(current) = field(last, name) else {
            continue;
        };
        let best = prior
            .iter()
            .filter_map(|e| field(e, name))
            .fold(f64::INFINITY, f64::min);
        if !best.is_finite() {
            continue;
        }
        if current > best * (1.0 + max_regress) {
            failures.push(format!(
                "{name}: {current:.4} vs best {best:.4} (regressed > {:.0}%)",
                max_regress * 100.0
            ));
        } else {
            println!("ok {name}: {current:.4} (best {best:.4})");
        }
    }
    for name in HISTORY_HIGHER_BETTER {
        let Some(current) = field(last, name) else {
            continue;
        };
        let best = prior
            .iter()
            .filter_map(|e| field(e, name))
            .fold(f64::NEG_INFINITY, f64::max);
        if !best.is_finite() {
            continue;
        }
        if current < best * (1.0 - max_regress) {
            failures.push(format!(
                "{name}: {current:.4} vs best {best:.4} (regressed > {:.0}%)",
                max_regress * 100.0
            ));
        } else {
            println!("ok {name}: {current:.4} (best {best:.4})");
        }
    }
    if failures.is_empty() {
        println!(
            "bench-check: latest entry within {:.0}% of the recorded trajectory",
            max_regress * 100.0
        );
        Ok(())
    } else {
        Err(format!(
            "bench trajectory regression: {}",
            failures.join("; ")
        ))
    }
}

fn bench_info_main(argv: &[String]) -> Result<(), String> {
    let mut min_len = 20u32;
    let mut check = false;
    let mut max_regress = 0.20f64;
    let mut history = "results/bench_history.jsonl".to_string();
    let mut args = argv.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min-len" => {
                min_len = args
                    .next()
                    .ok_or("missing value for --min-len")?
                    .parse()
                    .map_err(|e| format!("bad --min-len: {e}"))?
            }
            "--check" => check = true,
            "--max-regress" => {
                max_regress = args
                    .next()
                    .ok_or("missing value for --max-regress")?
                    .parse()
                    .map_err(|e| format!("bad --max-regress: {e}"))?
            }
            "--history" => {
                history = args.next().ok_or("missing value for --history")?;
            }
            other => return Err(format!("bench-info: unknown option {other}")),
        }
    }
    if check {
        return bench_check(&history, max_regress);
    }
    let config = GpumemConfig::builder(min_len)
        .threads_per_block(128)
        .blocks_per_tile(16)
        .build()
        .map_err(|e| e.to_string())?;
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

fn run_main(argv: &[String]) -> ExitCode {
    let opts = match parse_args(argv) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            usage();
            return if msg == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    let run = || -> Result<(), String> {
        let reference = load_reference(&opts.reference)?;
        let queries = SeqSet::from_records(&load_records(&opts.query)?);

        // Under --sanitize every simulated kernel launch between here
        // and finish() is hazard-checked (only the gpumem tool launches
        // kernels; for CPU baselines the report is trivially clean).
        let session = opts.sanitize.then(gpumem::sim::sanitizer::Session::start);
        let mut by_record = run_finder(&opts, &reference, &queries)?;
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

        // Variant filtering, per query record (forward-strand
        // coordinates only; reverse hits are filtered against the
        // reverse complement implicitly via their reference interval).
        if opts.mum || opts.rare.is_some() {
            let max_occ = if opts.mum { 1 } else { opts.rare.unwrap() };
            for (i, record) in by_record.iter_mut().enumerate() {
                let filter = VariantFilter::new(&reference, &queries.record_seq(i));
                let mems: Vec<Mem> = record.hits.iter().map(|h| h.mem).collect();
                let keep: std::collections::HashSet<Mem> =
                    filter.rare_matches(&mems, max_occ).into_iter().collect();
                record.hits.retain(|h| keep.contains(&h.mem));
            }
        }

        if opts.stats {
            let total: usize = by_record.iter().map(|r| r.hits.len()).sum();
            eprintln!("{} matches (L >= {})", total, opts.min_len);
        }
        let name_column = by_record.len() > 1;
        let mut out = String::new();
        for record in &by_record {
            for hit in &record.hits {
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
                    out.push_str(&record.name);
                }
                out.push('\n');
            }
        }
        print!("{out}");
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
